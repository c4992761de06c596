//! The text-to-SAIF path of `gatspi sim`: Verilog, SDF and VCD text in,
//! SAIF text out. Used by `sanity_low_activity` and `scan_high_activity`.

use std::fs;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use gatspi_core::RunOptions;
use gatspi_power::glitch::classify;
use gatspi_power::{sta, PowerModel};
use gatspi_wave::saif::SaifDocument;

use crate::check::Checker;
use crate::layers::{self, Samples};
use crate::trace::{SpanTree, Tracer};
use crate::workload::Inputs;
use crate::{sim_config, BenchResult, Measured, RunConfig, TracedPass};

pub(crate) fn measure(
    cfg: &RunConfig,
    inputs: &Inputs,
    checker: &mut Checker,
    tr: &Tracer,
    dir: &Path,
) -> BenchResult<Measured> {
    let sim_cfg = sim_config(inputs, cfg.scale);
    let duration = inputs.duration;
    let saif_path = dir.join("out.saif");
    let untraced = Tracer::new(false);

    // Reference: once, before any timed region.
    let reference = layers::reference(
        &inputs.netlist,
        &inputs.sdf,
        &inputs.stimuli,
        duration,
        "refsim.run",
        tr,
    )?;

    // The spilled run every incremental run re-simulates the latest-level
    // gates from.
    let first = layers::setup(&inputs.files, &sim_cfg, &untraced)?;
    let spill = RunOptions::default().with_waveform_spill();
    let prev = first.session.run_with(&first.stimuli, duration, &spill)?;
    checker.saif("spilled run", &prev.saif, &reference);
    let changed = layers::latest_level_gates(&first.graph, (first.graph.n_gates() / 40).max(1));
    let incremental_gates = layers::cone_gates(&first.graph, &changed);
    let toggles = prev.total_toggles();
    let device_workers = first.session.device().workers();
    let (gates, signals) = (first.graph.n_gates(), first.graph.n_signals());
    drop(first);

    // Rounds spread every metric's samples over the whole invocation, each
    // on a fresh session: a cold turnaround (files in, set-up, first run,
    // SAIF file out), then warm full runs as `gatspi sim` makes them and
    // incremental runs.
    let shape = cfg.workload.shape(cfg.scale);
    let probe = layers::HostProbe::new();
    let mut samples = Samples::default();
    let mut rounds = layers::Rounds::new(Instant::now(), cfg.seconds);
    while rounds.another() {
        probe.sample(&mut samples);
        let t0 = Instant::now();
        let s = layers::setup(&inputs.files, &sim_cfg, &untraced)?;
        let setup_s = t0.elapsed().as_secs_f64();
        if let Some(r) = checker.ok("first run", s.session.run(&s.stimuli, duration)) {
            let text = r.saif.write();
            fs::write(&saif_path, &text)?;
            samples.turnaround.push(t0.elapsed().as_secs_f64());
            samples.setup.push(setup_s);
            checker.saif_text("text-to-SAIF", &text, &reference);
        }
        layers::warm_pairs(
            shape.warm_per_round,
            &probe,
            &mut samples,
            checker,
            || s.session.run(&s.stimuli, duration),
            &reference,
            || {
                s.session
                    .run_incremental(&prev, &changed, &s.stimuli, duration, &spill)
            },
            &reference,
        );
    }
    drop(prev);

    let traced = if tr.enabled() {
        Some(traced_pass(
            inputs, &sim_cfg, &reference, checker, tr, &saif_path,
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

/// One cold turnaround with a span around every layer call, then a warm
/// run, a power analysis of a spilled run and an incremental run.
fn traced_pass(
    inputs: &Inputs,
    sim_cfg: &gatspi_core::SimConfig,
    reference: &SaifDocument,
    checker: &mut Checker,
    tr: &Tracer,
    saif_path: &Path,
) -> BenchResult<TracedPass> {
    let duration = inputs.duration;
    let (s, text) = {
        let _turnaround = tr.span("turnaround");
        let s = layers::setup(&inputs.files, sim_cfg, tr)?;
        let r = tr.time("core.first_run", || s.session.run(&s.stimuli, duration))?;
        let text = tr.time("wave.saif_write", || {
            let text = r.saif.write();
            fs::write(saif_path, &text).map(|()| text)
        })?;
        (s, text)
    };
    checker.saif_text("traced text-to-SAIF", &text, reference);

    let r = {
        let span = tr.span("core.run");
        let r = s.session.run(&s.stimuli, duration)?;
        layers::count_run(&span, &r);
        r
    };
    checker.saif("traced warm run", &r.saif, reference);

    let spill = RunOptions::default().with_waveform_spill();
    let prev = {
        let _analysis = tr.span("power.analysis");
        let prev = {
            let span = tr.span("core.spill_run");
            let r = s.session.run_with(&s.stimuli, duration, &spill)?;
            layers::count_run(&span, &r);
            r
        };
        let waves = tr.time("core.waveform_rebuild", || {
            layers::all_waveforms(&prev, &s.graph)
        })?;
        black_box(tr.time("power.classify", || {
            classify(&waves, inputs.cycle_time, duration)
        }));
        let areas = PowerModel::areas_of(&s.netlist);
        black_box(tr.time("power.estimate", || {
            PowerModel::default().estimate(
                &s.graph,
                prev.toggle_counts_slice(),
                &areas,
                i64::from(duration),
            )
        }));
        black_box(tr.time("power.sta", || sta::max_arrivals(&s.graph)));
        prev
    };
    checker.saif("traced spilled run", &prev.saif, reference);

    // The first incremental run compiles the cone plan; the second is the
    // warm one `incremental_s` times.
    let changed = layers::latest_level_gates(&s.graph, (s.graph.n_gates() / 40).max(1));
    let incremental = || {
        s.session
            .run_incremental(&prev, &changed, &s.stimuli, duration, &spill)
    };
    let ri = tr.time("core.first_incremental", incremental)?;
    checker.saif("traced first incremental run", &ri.saif, reference);
    let ri = layers::traced_incremental(&s.session, incremental, tr)?;
    checker.saif("traced incremental run", &ri.saif, reference);

    let tree = SpanTree::new(tr.spans());
    Ok(TracedPass {
        turnaround: tree.total("turnaround"),
        residual: tree.residual("turnaround"),
        flow_residual: tree.residual("power.analysis"),
    })
}
