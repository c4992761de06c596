//! The §4 glitch-optimization flow: re-simulate → analyse → fix → re-simulate.
//!
//! The paper deploys GATSPI in a glitch-power-reduction loop on a 1.3M-gate
//! design: custom scripts analyse glitch activity, designer-informed fixes
//! are applied to the netlist, and a second re-simulation confirms a 1.4%
//! design-power saving — with GATSPI cutting the loop's re-simulation
//! turnaround 449× versus the commercial simulator.
//!
//! This module reproduces that loop end to end. The "designer-informed
//! glitch fix" is implemented as *glitch absorption by cell slowdown*: the
//! gates whose outputs glitch most are downsized (their arc delays scaled
//! up), widening their inertial filtering window so sub-delay input pulses
//! die at the source instead of propagating — a standard glitch-power
//! technique that also saves the downsized cells' own energy. A static-
//! timing guard keeps every slowdown within the clock period's slack.

use std::sync::Arc;
use std::time::Instant;

use gatspi_core::{CoreError, RunOptions, Session, SimConfig};
use gatspi_graph::{CircuitGraph, GraphError, GraphOptions};
use gatspi_netlist::Netlist;
use gatspi_refsim::{EventSimulator, RefConfig};
use gatspi_sdf::{DelayTriple, IoPath, SdfFile};
use gatspi_wave::{SimTime, Waveform};

use crate::glitch::{classify, GlitchStats};
use crate::{PowerModel, PowerReport};

/// Flow configuration.
#[derive(Debug, Clone)]
pub struct FlowConfig {
    /// How many worst glitch-source gates to fix.
    pub fixes: usize,
    /// Arc-delay scale factor applied to fixed gates (cell downsizing).
    pub slowdown: f64,
    /// Timing guard: after fixing, the critical path must stay below this
    /// fraction of the clock period.
    pub max_path_fraction: f64,
    /// Power model.
    pub power: PowerModel,
    /// GATSPI engine configuration for both re-simulations.
    pub sim: SimConfig,
    /// Also run the event-driven baseline twice to measure the turnaround
    /// speedup (skippable because it dominates the flow's wall time).
    pub compare_baseline: bool,
}

impl Default for FlowConfig {
    fn default() -> Self {
        FlowConfig {
            fixes: 10,
            slowdown: 2.0,
            max_path_fraction: 0.9,
            power: PowerModel::default(),
            sim: SimConfig::default(),
            compare_baseline: true,
        }
    }
}

/// Outcome of one optimization loop.
#[derive(Debug, Clone)]
pub struct FlowReport {
    /// Power before fixing.
    pub power_before: PowerReport,
    /// Power after fixing.
    pub power_after: PowerReport,
    /// Relative saving in percent (positive = improved).
    pub saving_pct: f64,
    /// (functional, glitch) toggle totals before fixing.
    pub glitch_before: (u64, u64),
    /// (functional, glitch) toggle totals after fixing.
    pub glitch_after: (u64, u64),
    /// Instance names of the gates that received balancing fixes.
    pub fixed_gates: Vec<String>,
    /// Wall seconds for the two GATSPI re-simulations.
    pub gatspi_seconds: f64,
    /// Wall seconds for the two baseline re-simulations, if measured.
    pub baseline_seconds: Option<f64>,
}

impl FlowReport {
    /// Turnaround speedup of GATSPI over the baseline, if measured.
    pub fn turnaround_speedup(&self) -> Option<f64> {
        self.baseline_seconds
            .map(|b| b / self.gatspi_seconds.max(1e-12))
    }
}

/// Runs the full glitch-optimization loop.
///
/// # Errors
///
/// Propagates GATSPI engine errors (e.g. arena exhaustion, or
/// [`CoreError::StimulusMismatch`] when the stimuli don't match the
/// netlist's inputs). Both re-simulations run with host waveform spill
/// enabled, so glitch classification works even when the run segments.
/// Returns [`CoreError::BadConfig`] if `cycle_time` is not positive, or —
/// with the [`GraphError`] text — if the netlist and SDF don't bind or a
/// slowed-down delay doesn't translate.
pub fn run_glitch_flow(
    netlist: &Netlist,
    sdf: &SdfFile,
    stimuli: &[Waveform],
    duration: SimTime,
    cycle_time: SimTime,
    cfg: &FlowConfig,
) -> gatspi_core::Result<FlowReport> {
    if cycle_time <= 0 {
        return Err(CoreError::BadConfig {
            detail: format!("cycle_time must be positive, got {cycle_time}"),
        });
    }
    let areas = PowerModel::areas_of(netlist);
    let graph0 =
        CircuitGraph::build(netlist, Some(sdf), &GraphOptions::default()).map_err(bad_graph)?;
    let graph0 = Arc::new(graph0);

    // --- Pass 1: re-simulate and analyse. Waveform spill keeps glitch
    // classification valid even if the arena forces segmentation.
    let run_opts = RunOptions::default().with_waveform_spill();
    let t0 = Instant::now();
    let sim0 = Session::new(Arc::clone(&graph0), cfg.sim.clone());
    let r0 = sim0.run_with(stimuli, duration, &run_opts)?;
    let mut gatspi_seconds = t0.elapsed().as_secs_f64();
    let power_before = cfg.power.estimate(
        &graph0,
        r0.toggle_counts_slice(),
        &areas,
        i64::from(duration),
    );
    let waveforms: Vec<Waveform> = (0..graph0.n_signals())
        .map(|s| r0.waveform(s))
        .collect::<gatspi_core::Result<_>>()?;
    let stats0 = classify(&waveforms, cycle_time, duration);

    // --- Fix: slow the worst glitch sources to absorb their pulses.
    let (graph1, fixed_gates, fixed_ids) =
        apply_slowdown_fixes(netlist, sdf, &graph0, &stats0, cycle_time, cfg).map_err(bad_graph)?;

    // --- Pass 2: incremental re-simulation of the fixed design. Only the
    // resized gates' transitive fan-out cone re-executes; every waveform
    // outside it is reused from pass 1's spill (the fixes change delays,
    // not topology, so out-of-cone activity is provably identical).
    let graph1 = Arc::new(graph1);
    let t1 = Instant::now();
    let sim1 = Session::new(Arc::clone(&graph1), cfg.sim.clone());
    let r1 = sim1.run_incremental(&r0, &fixed_ids, stimuli, duration, &run_opts)?;
    gatspi_seconds += t1.elapsed().as_secs_f64();
    let power_after = cfg.power.estimate(
        &graph1,
        r1.toggle_counts_slice(),
        &areas,
        i64::from(duration),
    );
    let waveforms1: Vec<Waveform> = (0..graph1.n_signals())
        .map(|s| r1.waveform(s))
        .collect::<gatspi_core::Result<_>>()?;
    let stats1 = classify(&waveforms1, cycle_time, duration);

    // --- Baseline turnaround (two event-driven runs), if requested.
    let baseline_seconds = cfg.compare_baseline.then(|| {
        let rc = RefConfig {
            record_waveforms: false,
            ..RefConfig::default()
        };
        let t = Instant::now();
        let _ = EventSimulator::new(&graph0, rc).run(stimuli, duration);
        let _ = EventSimulator::new(&graph1, rc).run(stimuli, duration);
        t.elapsed().as_secs_f64()
    });

    Ok(FlowReport {
        saving_pct: power_after.saving_vs(&power_before),
        power_before,
        power_after,
        glitch_before: (stats0.total_functional(), stats0.total_glitch()),
        glitch_after: (stats1.total_functional(), stats1.total_glitch()),
        fixed_gates,
        gatspi_seconds,
        baseline_seconds,
    })
}

fn bad_graph(e: GraphError) -> CoreError {
    CoreError::BadConfig {
        detail: e.to_string(),
    }
}

/// Slows the `fixes` worst glitch-source gates: scales the arc delays of
/// each candidate's instance-specific SDF cells by `cfg.slowdown` (cell
/// downsizing) and re-annotates that gate alone in a copy of `graph`.
/// Every candidate is checked against a static-timing guard: if slowing it
/// would push the critical path past `cfg.max_path_fraction · cycle_time`,
/// the gate's previous delays are restored and it is skipped. Returns the
/// fixed graph — equal to a build from the SDF with every accepted gate
/// slowed — the fixed instances' names, and their gate indices, the
/// changed set the incremental re-simulation cones from.
fn apply_slowdown_fixes(
    netlist: &Netlist,
    sdf: &SdfFile,
    graph: &CircuitGraph,
    stats: &GlitchStats,
    cycle_time: SimTime,
    cfg: &FlowConfig,
) -> Result<(CircuitGraph, Vec<String>, Vec<usize>), GraphError> {
    let budget = (f64::from(cycle_time) * cfg.max_path_fraction) as i64;
    let index = sdf.cell_index();
    let opts = GraphOptions::default();
    let mut trial = graph.clone();
    let mut fixed = Vec::new();
    let mut fixed_ids = Vec::new();
    let mut seen = std::collections::HashSet::new();
    for (sig, _count) in stats.worst_signals() {
        if fixed.len() >= cfg.fixes {
            break;
        }
        let Some(g) = graph.driver(gatspi_graph::SignalId(sig as u32)) else {
            continue;
        };
        if !seen.insert(g) {
            continue;
        }
        let gate = netlist.gate(gatspi_netlist::GateId::from_index(g));
        // Only gates with cells of their own can be resized.
        if index.instance_cells(gate.name()).is_empty() {
            continue;
        }
        let cells = index.cells_for(netlist.library().cell(gate.cell()).name(), gate.name());
        let original = || cells.iter().flat_map(|&c| &sdf.cells[c].iopaths);
        let slowed: Vec<IoPath> = cells
            .iter()
            .flat_map(|&c| {
                let own = sdf.cells[c].instance.as_deref() == Some(gate.name());
                sdf.cells[c].iopaths.iter().map(move |p| {
                    let mut p = p.clone();
                    if own {
                        scale_triple(&mut p.rise, cfg.slowdown);
                        scale_triple(&mut p.fall, cfg.slowdown);
                    }
                    p
                })
            })
            .collect();
        trial.reannotate_gate(netlist, g, &slowed, &opts)?;
        // Timing guard: reject fixes that eat the cycle's settle margin.
        if crate::sta::max_arrivals(&trial).critical_path() > budget {
            trial.reannotate_gate(netlist, g, original(), &opts)?;
            continue;
        }
        fixed.push(gate.name().to_string());
        fixed_ids.push(g);
    }
    Ok((trial, fixed, fixed_ids))
}

fn scale_triple(t: &mut DelayTriple, factor: f64) {
    let scale = |v: Option<f64>| v.map(|x| (x * factor).round());
    t.min = scale(t.min);
    t.typ = scale(t.typ);
    t.max = scale(t.max);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::glitch::classify;
    use gatspi_netlist::{CellLibrary, NetlistBuilder};
    use gatspi_workloads::sdfgen::{attach_sdf, SdfGenConfig};
    use gatspi_workloads::stimuli::{generate, StimulusConfig};

    /// A deliberately skewed XOR tree: classic glitch generator.
    fn glitchy_design() -> (Netlist, SdfFile) {
        let mut b = NetlistBuilder::new("glitchy", CellLibrary::industry_mini());
        let ins: Vec<_> = (0..8)
            .map(|i| b.add_input(&format!("d[{i}]")).unwrap())
            .collect();
        // Linear XOR chain: arrival skew grows along the chain.
        let mut acc = ins[0];
        for (i, &x) in ins.iter().enumerate().skip(1) {
            let out = if i == 7 {
                b.add_output("parity").unwrap()
            } else {
                b.add_net(&format!("x{i}")).unwrap()
            };
            b.add_gate(&format!("ux{i}"), "XOR2", &[acc, x], out)
                .unwrap();
            acc = out;
        }
        let netlist = b.finish().unwrap();
        let sdf = attach_sdf(
            &netlist,
            &SdfGenConfig {
                interconnect_probability: 0.0,
                cond_probability: 0.0,
                ..Default::default()
            },
        );
        (netlist, sdf)
    }

    #[test]
    fn flow_reduces_glitches_and_power() {
        let (netlist, sdf) = glitchy_design();
        let cycle = 400;
        let cycles = 120;
        let stimuli = generate(
            netlist.primary_inputs().len(),
            &StimulusConfig::random(cycles, cycle, 0.9, 13),
        );
        let cfg = FlowConfig {
            fixes: 7,
            sim: SimConfig::small()
                .with_cycle_parallelism(4)
                .with_window_align(cycle),
            compare_baseline: true,
            ..Default::default()
        };
        let report =
            run_glitch_flow(&netlist, &sdf, &stimuli, cycle * cycles as i32, cycle, &cfg).unwrap();
        assert!(!report.fixed_gates.is_empty());
        assert!(
            report.glitch_after.1 < report.glitch_before.1,
            "glitches should drop: {:?} -> {:?}",
            report.glitch_before,
            report.glitch_after
        );
        assert!(
            report.saving_pct > 0.0,
            "power should improve, got {}%",
            report.saving_pct
        );
        assert!(report.turnaround_speedup().is_some());
    }

    /// The fix loop as first written: per candidate, clone the patched
    /// SDF, scale the instance's cells found by a scan of every cell,
    /// rebuild the whole graph and run the guard. Returns the patched SDF,
    /// the fixed names and indices, and how many candidates the guard
    /// rejected.
    fn rebuild_per_candidate(
        netlist: &Netlist,
        sdf: &SdfFile,
        graph: &CircuitGraph,
        stats: &GlitchStats,
        cycle_time: SimTime,
        cfg: &FlowConfig,
    ) -> (SdfFile, Vec<String>, Vec<usize>, usize) {
        let budget = (f64::from(cycle_time) * cfg.max_path_fraction) as i64;
        let mut patched = sdf.clone();
        let (mut fixed, mut fixed_ids, mut rejected) = (Vec::new(), Vec::new(), 0);
        let mut seen = std::collections::HashSet::new();
        for (sig, _count) in stats.worst_signals() {
            if fixed.len() >= cfg.fixes {
                break;
            }
            let Some(g) = graph.driver(gatspi_graph::SignalId(sig as u32)) else {
                continue;
            };
            if !seen.insert(g) {
                continue;
            }
            let gate = netlist.gate(gatspi_netlist::GateId::from_index(g));
            let mut candidate = patched.clone();
            let mut touched = false;
            for cell in &mut candidate.cells {
                if cell.instance.as_deref() == Some(gate.name()) {
                    for p in &mut cell.iopaths {
                        scale_triple(&mut p.rise, cfg.slowdown);
                        scale_triple(&mut p.fall, cfg.slowdown);
                    }
                    touched = true;
                }
            }
            if !touched {
                continue;
            }
            let trial =
                CircuitGraph::build(netlist, Some(&candidate), &GraphOptions::default()).unwrap();
            if crate::sta::max_arrivals(&trial).critical_path() > budget {
                rejected += 1;
                continue;
            }
            patched = candidate;
            fixed.push(gate.name().to_string());
            fixed_ids.push(g);
        }
        (patched, fixed, fixed_ids, rejected)
    }

    /// A timing guard tight enough to reject some candidates and accept
    /// others: the in-place fix loop must choose the same gates as a
    /// rebuild per candidate, and its graph must equal a build of the SDF
    /// the rebuilds patched.
    #[test]
    fn guard_rejections_match_rebuild_per_candidate() {
        let netlist = gatspi_workloads::circuits::mac_datapath(4, 2);
        let sdf = attach_sdf(&netlist, &SdfGenConfig::default());
        let cycle = 400;
        let cycles = 60;
        let stimuli = generate(
            netlist.primary_inputs().len(),
            &StimulusConfig::random(cycles, cycle, 0.5, 3),
        );
        let duration = cycle * cycles as i32;
        let graph = CircuitGraph::build(&netlist, Some(&sdf), &GraphOptions::default()).unwrap();
        let critical = crate::sta::max_arrivals(&graph).critical_path();
        let cfg = FlowConfig {
            fixes: 40,
            // Room for a few slowdowns on the critical path, not for all.
            max_path_fraction: (critical as f64 + 20.5) / f64::from(cycle),
            sim: SimConfig::small().with_window_align(cycle),
            compare_baseline: false,
            ..Default::default()
        };
        let run = Session::new(Arc::new(graph.clone()), cfg.sim.clone())
            .run_with(
                &stimuli,
                duration,
                &RunOptions::default().with_waveform_spill(),
            )
            .unwrap();
        let waveforms: Vec<Waveform> = (0..graph.n_signals())
            .map(|s| run.waveform(s).unwrap())
            .collect();
        let stats = classify(&waveforms, cycle, duration);

        let (patched, oracle_fixed, oracle_ids, rejected) =
            rebuild_per_candidate(&netlist, &sdf, &graph, &stats, cycle, &cfg);
        assert!(rejected > 0, "the guard must reject a candidate");
        assert!(
            !oracle_fixed.is_empty(),
            "the guard must accept a candidate"
        );

        let (fixed_graph, fixed, ids) =
            apply_slowdown_fixes(&netlist, &sdf, &graph, &stats, cycle, &cfg).unwrap();
        assert_eq!(fixed, oracle_fixed);
        assert_eq!(ids, oracle_ids);
        let rebuilt =
            CircuitGraph::build(&netlist, Some(&patched), &GraphOptions::default()).unwrap();
        assert!(
            fixed_graph == rebuilt,
            "in-place fixes differ from a rebuild"
        );

        let report = run_glitch_flow(&netlist, &sdf, &stimuli, duration, cycle, &cfg).unwrap();
        assert_eq!(report.fixed_gates, oracle_fixed);
    }

    fn quick_cfg() -> FlowConfig {
        FlowConfig {
            sim: SimConfig::small(),
            compare_baseline: false,
            ..Default::default()
        }
    }

    fn bad_config(r: gatspi_core::Result<FlowReport>) -> String {
        match r {
            Err(CoreError::BadConfig { detail }) => detail,
            other => panic!("expected BadConfig, got {:?}", other.map(|r| r.fixed_gates)),
        }
    }

    #[test]
    fn non_positive_cycle_time_is_rejected() {
        let (netlist, sdf) = glitchy_design();
        let stimuli = generate(
            netlist.primary_inputs().len(),
            &StimulusConfig::random(10, 400, 0.9, 7),
        );
        for cycle_time in [0, -400] {
            let r = run_glitch_flow(&netlist, &sdf, &stimuli, 4000, cycle_time, &quick_cfg());
            assert!(bad_config(r).contains("cycle_time"));
        }
    }

    #[test]
    fn stimulus_count_mismatch_is_rejected() {
        let (netlist, sdf) = glitchy_design();
        let stimuli = generate(
            netlist.primary_inputs().len() - 1,
            &StimulusConfig::random(10, 400, 0.9, 7),
        );
        let r = run_glitch_flow(&netlist, &sdf, &stimuli, 4000, 400, &quick_cfg());
        assert!(matches!(r, Err(CoreError::StimulusMismatch { .. })));
    }

    #[test]
    fn unknown_iopath_pin_is_rejected() {
        let (netlist, mut sdf) = glitchy_design();
        let mut cell = sdf.cells[0].clone();
        cell.iopaths[0].input = "Q".into();
        sdf.cells.push(cell);
        let stimuli = generate(
            netlist.primary_inputs().len(),
            &StimulusConfig::random(10, 400, 0.9, 7),
        );
        let r = run_glitch_flow(&netlist, &sdf, &stimuli, 4000, 400, &quick_cfg());
        assert!(bad_config(r).contains("`Q`"));
    }

    #[test]
    fn flow_without_baseline_is_faster_path() {
        let (netlist, sdf) = glitchy_design();
        let cycle = 400;
        let stimuli = generate(
            netlist.primary_inputs().len(),
            &StimulusConfig::random(40, cycle, 0.9, 7),
        );
        let cfg = FlowConfig {
            fixes: 3,
            sim: SimConfig::small().with_window_align(cycle),
            compare_baseline: false,
            ..Default::default()
        };
        let report = run_glitch_flow(&netlist, &sdf, &stimuli, cycle * 40, cycle, &cfg).unwrap();
        assert!(report.baseline_seconds.is_none());
        assert!(report.turnaround_speedup().is_none());
    }
}
