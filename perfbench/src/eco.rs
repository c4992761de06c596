//! The §4 glitch-optimisation loop (`run_glitch_flow`) and warm
//! incremental re-simulation of the fixed-gate set it chose. Used by
//! `eco_glitch_flow`.

use std::fs;
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use gatspi_core::{RunOptions, Session};
use gatspi_power::flow::{run_glitch_flow, FlowConfig, FlowReport};
use gatspi_power::glitch::classify;
use gatspi_power::{sta, PowerModel};
use gatspi_wave::saif::SaifDocument;

use crate::check::Checker;
use crate::layers::{self, Samples, Setup};
use crate::trace::{SpanTree, Tracer};
use crate::workload::Inputs;
use crate::{sim_config, BenchResult, Measured, RunConfig, TracedPass};

/// Set-up and warm steps per round. A flow takes 5–7 s, so the shorter
/// metrics are sampled in several steps between flows: samples spread over
/// more of the invocation average over more of a shared host's swings.
const STEPS_PER_ROUND: usize = 3;

/// What two runs of the same flow on the same inputs must agree on.
fn differences(a: &FlowReport, b: &FlowReport) -> Vec<String> {
    let mut out = Vec::new();
    if a.saving_pct.to_bits() != b.saving_pct.to_bits() {
        out.push(format!("saving_pct {} vs {}", a.saving_pct, b.saving_pct));
    }
    if a.fixed_gates != b.fixed_gates {
        out.push("fixed gates differ".to_string());
    }
    if (a.glitch_before, a.glitch_after) != (b.glitch_before, b.glitch_after) {
        out.push("glitch counts differ".to_string());
    }
    out
}

fn saving_matches(saving: f64, report: &FlowReport) -> Vec<String> {
    if saving.to_bits() == report.saving_pct.to_bits() {
        Vec::new()
    } else {
        vec![format!(
            "replayed saving {saving}% vs flow's {}%",
            report.saving_pct
        )]
    }
}

pub(crate) fn measure(
    cfg: &RunConfig,
    inputs: &Inputs,
    checker: &mut Checker,
    tr: &Tracer,
    dir: &Path,
) -> BenchResult<Measured> {
    let sim_cfg = sim_config(inputs, cfg.scale);
    let flow_cfg = FlowConfig {
        fixes: (inputs.netlist.gate_count() / 40).max(1),
        sim: sim_cfg.clone(),
        compare_baseline: false,
        ..FlowConfig::default()
    };
    let (duration, cycle_time) = (inputs.duration, inputs.cycle_time);
    let untraced = Tracer::new(false);

    let reference = layers::reference(
        &inputs.netlist,
        &inputs.sdf,
        &inputs.stimuli,
        duration,
        "refsim.run",
        tr,
    )?;

    // The design as parsed; the first flow (timed too, it starts the
    // invocation's clock) chooses the fixes, and the fixed design is
    // rebuilt from its report with the flow's slowdown.
    let Setup {
        netlist,
        sdf,
        graph: graph0,
        stimuli,
        session: session0,
    } = layers::setup(&inputs.files, &sim_cfg, &untraced)?;
    let flow = || {
        let t0 = Instant::now();
        let r = run_glitch_flow(&netlist, &sdf, &stimuli, duration, cycle_time, &flow_cfg);
        (r, t0.elapsed().as_secs_f64())
    };
    let probe = layers::HostProbe::new();
    let mut samples = Samples::default();
    let start = Instant::now();
    probe.sample(&mut samples);
    let (report, dt) = flow();
    let report = report?;
    samples.turnaround.push(dt);
    let fixed_ids = layers::gate_ids(&netlist, &report.fixed_gates)?;
    let fixed_reference = layers::reference(
        &inputs.netlist,
        &layers::slowed_sdf(&inputs.sdf, &report.fixed_gates, flow_cfg.slowdown),
        &inputs.stimuli,
        duration,
        "refsim.run_fixed",
        tr,
    )?;
    let sdf1 = layers::slowed_sdf(&sdf, &report.fixed_gates, flow_cfg.slowdown);
    let graph1 = layers::build_graph(&netlist, &sdf1, &untraced)?;

    // The flow's spilled full run, which every incremental run re-simulates
    // the fixes from, and the incremental run of its fixes; the flow's
    // saving must follow from the two.
    let spill = RunOptions::default().with_waveform_spill();
    let prev = session0.run_with(&stimuli, duration, &spill)?;
    checker.saif("spilled run", &prev.saif, &reference);
    let session1 = Session::new(Arc::clone(&graph1), sim_cfg.clone());
    let after = session1.run_incremental(&prev, &fixed_ids, &stimuli, duration, &spill)?;
    checker.saif("incremental run", &after.saif, &fixed_reference);
    let model = &flow_cfg.power;
    let areas = PowerModel::areas_of(&netlist);
    let power = |graph: &gatspi_graph::CircuitGraph, r: &gatspi_core::SimResult| {
        model.estimate(graph, r.toggle_counts_slice(), &areas, i64::from(duration))
    };
    let saving = power(&graph1, &after).saving_vs(&power(&graph0, &prev));
    checker.record("flow saving", &saving_matches(saving, &report));
    let incremental_gates = layers::cone_gates(&graph1, &fixed_ids);
    let toggles = prev.total_toggles();
    let device_workers = session0.device().workers();
    let (gates, signals) = (graph0.n_gates(), graph0.n_signals());
    drop(after);

    // Rounds spread every metric's samples over the whole invocation:
    // short steps of one cold set-up (the text parse and compile of
    // `gatspi sim`) and a few warm pairs — a spilled full run of the design
    // and an incremental run of the flow's fixes — then one whole flow.
    let shape = cfg.workload.shape(cfg.scale);
    let mut rounds = layers::Rounds::new(start, cfg.seconds);
    while rounds.another() {
        for _ in 0..STEPS_PER_ROUND {
            probe.sample(&mut samples);
            let t0 = Instant::now();
            let s = layers::setup(&inputs.files, &sim_cfg, &untraced)?;
            samples.setup.push(t0.elapsed().as_secs_f64());
            drop(s);
            layers::warm_pairs(
                shape.warm_per_round,
                &probe,
                &mut samples,
                checker,
                || session0.run_with(&stimuli, duration, &spill),
                &reference,
                || session1.run_incremental(&prev, &fixed_ids, &stimuli, duration, &spill),
                &fixed_reference,
            );
        }
        probe.sample(&mut samples);
        let (r, dt) = flow();
        if let Some(r) = checker.ok("glitch flow", r) {
            samples.turnaround.push(dt);
            checker.record("repeated glitch flow", &differences(&report, &r));
        }
    }
    drop((prev, session0, session1));

    let traced = if tr.enabled() {
        let refs = (&reference, &fixed_reference);
        let saif_path = dir.join("fixed.saif");
        Some(traced_pass(
            inputs, &flow_cfg, &report, refs, checker, tr, &saif_path,
        )?)
    } else {
        None
    };
    Ok(Measured {
        samples,
        gates,
        signals,
        toggles: vec![toggles],
        incremental_gates: vec![incremental_gates],
        device_workers,
        traced,
    })
}

/// A traced flow, then a replay of its public calls in the flow's order
/// with a span around each. The flow's wall minus the replay is the part
/// only the flow's private fix loop accounts for.
fn traced_pass(
    inputs: &Inputs,
    flow_cfg: &FlowConfig,
    report: &FlowReport,
    (reference, fixed_reference): (&SaifDocument, &SaifDocument),
    checker: &mut Checker,
    tr: &Tracer,
    saif_path: &Path,
) -> BenchResult<TracedPass> {
    let sim_cfg = &flow_cfg.sim;
    let (duration, cycle_time) = (inputs.duration, inputs.cycle_time);
    let parsed = layers::parse_inputs(&inputs.files, tr)?;
    let stimuli = layers::stimuli_by_name(
        parsed
            .netlist
            .primary_inputs()
            .iter()
            .map(|&n| parsed.netlist.net(n).name()),
        &parsed.vcd,
    )?;
    let flow = tr.time("power.glitch_flow", || {
        run_glitch_flow(
            &parsed.netlist,
            &parsed.sdf,
            &stimuli,
            duration,
            cycle_time,
            flow_cfg,
        )
    })?;
    checker.record("traced glitch flow", &differences(report, &flow));

    let spill = RunOptions::default().with_waveform_spill();
    let (session0, session1, fixed_ids, r0, r1) = {
        let _replay = tr.span("replay");
        let model = &flow_cfg.power;
        let areas = PowerModel::areas_of(&parsed.netlist);
        let graph0 = layers::build_graph(&parsed.netlist, &parsed.sdf, tr)?;
        let session0 = layers::open_session(Arc::clone(&graph0), sim_cfg, tr);
        let r0 = {
            let span = tr.span("core.spill_run");
            let r = session0.run_with(&stimuli, duration, &spill)?;
            layers::count_run(&span, &r);
            r
        };
        let before = tr.time("power.estimate", || {
            model.estimate(
                &graph0,
                r0.toggle_counts_slice(),
                &areas,
                i64::from(duration),
            )
        });
        let waves = tr.time("core.waveform_rebuild", || {
            layers::all_waveforms(&r0, &graph0)
        })?;
        black_box(tr.time("power.classify", || classify(&waves, cycle_time, duration)));
        drop(waves);

        let fixed_ids = layers::gate_ids(&parsed.netlist, &flow.fixed_gates)?;
        let sdf1 = layers::slowed_sdf(&parsed.sdf, &flow.fixed_gates, flow_cfg.slowdown);
        let graph1 = layers::build_graph(&parsed.netlist, &sdf1, tr)?;
        black_box(tr.time("power.sta", || sta::max_arrivals(&graph1)));
        let session1 = layers::open_session(Arc::clone(&graph1), sim_cfg, tr);
        let r1 = tr.time("core.first_incremental", || {
            session1.run_incremental(&r0, &fixed_ids, &stimuli, duration, &spill)
        })?;
        let after = tr.time("power.estimate", || {
            model.estimate(
                &graph1,
                r1.toggle_counts_slice(),
                &areas,
                i64::from(duration),
            )
        });
        let waves = tr.time("core.waveform_rebuild", || {
            layers::all_waveforms(&r1, &graph1)
        })?;
        black_box(tr.time("power.classify", || classify(&waves, cycle_time, duration)));
        checker.record(
            "replayed saving",
            &saving_matches(after.saving_vs(&before), &flow),
        );
        (session0, session1, fixed_ids, r0, r1)
    };
    checker.saif("replayed spilled run", &r0.saif, reference);
    checker.saif("replayed incremental run", &r1.saif, fixed_reference);

    let ri = layers::traced_incremental(
        &session1,
        || session1.run_incremental(&r0, &fixed_ids, &stimuli, duration, &spill),
        tr,
    )?;
    checker.saif("traced incremental run", &ri.saif, fixed_reference);

    let r = {
        let span = tr.span("core.run");
        let r = session0.run_with(&stimuli, duration, &spill)?;
        layers::count_run(&span, &r);
        r
    };
    checker.saif("traced warm run", &r.saif, reference);

    let text = tr.time("wave.saif_write", || {
        let text = r1.saif.write();
        fs::write(saif_path, &text).map(|()| text)
    })?;
    checker.saif_text("traced SAIF write", &text, fixed_reference);

    let tree = SpanTree::new(tr.spans());
    let replay = tree.find("replay").ok_or("no replay span")?;
    let flow_s = tree.total("power.glitch_flow");
    Ok(TracedPass {
        turnaround: flow_s,
        residual: tree.self_time(replay),
        flow_residual: flow_s - tree.children_total(replay),
    })
}
