//! Executor equivalence: the levelized executor — folded store-pass
//! publication, slab-partitioned scratch columns, each level published
//! inline to the asynchronous SAIF dumper — must produce **bit-identical**
//! results to the event-driven reference (SAIF and, for spilled runs,
//! every full waveform) across plain windowed runs, segmented runs,
//! streaming sinks, multi-GPU sharding (with and without spill) and the
//! pooled chase-the-cursor phase driver. Where the reference does not
//! apply — a deep chain still propagating when its windows are cut, or
//! the sink's per-window deliveries — an unfused, unsegmented or
//! single-device run of the same configuration stands in for it. The
//! speculative single-pass schedule must match the two-pass one on each
//! of those paths.

use std::sync::Arc;

use gatspi_core::{
    RunOptions, Session, SimConfig, SimResult, Speculation, WaveformSink, WindowInfo,
};
use gatspi_gpu::{DeviceSpec, MultiGpu};
use gatspi_graph::{CircuitGraph, GraphOptions};
use gatspi_netlist::{CellLibrary, NetlistBuilder};
use gatspi_refsim::{EventSimulator, RefConfig, RefResult};
use gatspi_wave::Waveform;
use gatspi_workloads::circuits::{random_logic, RandomLogicConfig};
use gatspi_workloads::sdfgen::{attach_sdf, SdfGenConfig};
use gatspi_workloads::stimuli::{generate, StimulusConfig};
use proptest::prelude::*;

/// Deep, narrow chain: thousands of one-gate levels exercise the fused
/// (phased-launch) path, where every level publishes at a phase boundary
/// inside one launch.
fn deep_chain(depth: usize) -> Arc<CircuitGraph> {
    let mut b = NetlistBuilder::new("deep", CellLibrary::industry_mini());
    let mut prev = b.add_input("a").unwrap();
    for i in 0..depth {
        let net = b.add_net(&format!("n{i}")).unwrap();
        b.add_gate(&format!("u{i}"), "INV", &[prev], net).unwrap();
        prev = net;
    }
    b.mark_output(prev);
    Arc::new(CircuitGraph::build(&b.finish().unwrap(), None, &GraphOptions::default()).unwrap())
}

/// Wide random logic with SDF delays: multi-gate levels exercise the
/// classic two-launch path with parallel publish.
fn wide_graph(seed: u64) -> Arc<CircuitGraph> {
    let netlist = random_logic(&RandomLogicConfig {
        gates: 300,
        inputs: 16,
        depth: 5,
        output_fraction: 0.1,
        seed,
    });
    let sdf = attach_sdf(
        &netlist,
        &SdfGenConfig {
            seed: seed ^ 0xBEEF,
            ..SdfGenConfig::default()
        },
    );
    Arc::new(CircuitGraph::build(&netlist, Some(&sdf), &GraphOptions::default()).unwrap())
}

fn assert_bit_identical(a: &SimResult, b: &SimResult, what: &str) {
    assert!(a.saif.diff(&b.saif).is_empty(), "{what}: SAIF diverged");
    assert_eq!(
        a.toggle_counts_slice(),
        b.toggle_counts_slice(),
        "{what}: toggle counts diverged"
    );
}

/// The event-driven reference run, with full waveforms recorded.
fn refsim(graph: &CircuitGraph, stimuli: &[Waveform], duration: i32) -> RefResult {
    EventSimulator::new(graph, RefConfig::default())
        .run(stimuli, duration)
        .unwrap()
}

/// Asserts `ours` has the reference's exact SAIF and, when `waveforms` is
/// set (spilled or still device-backed runs), every signal's full waveform.
fn assert_matches_refsim(ours: &SimResult, r: &RefResult, waveforms: bool, what: &str) {
    let diffs = ours.saif.diff(&r.saif);
    assert!(
        diffs.is_empty(),
        "{what}: SAIF diverged from refsim, first: {:?}",
        diffs.first()
    );
    if waveforms {
        let ref_waves = r.waveforms.as_ref().expect("refsim recorded waveforms");
        for (s, want) in ref_waves.iter().enumerate() {
            assert_eq!(&ours.waveform(s).unwrap(), want, "{what}: signal {s}");
        }
    }
}

/// A 600-deep chain is still propagating when windows cut it, so the
/// windowed result is not the continuous-timeline refsim's; the reference
/// is the same session config with fusion disabled, whose levels publish
/// on the engine thread after each launch instead of at phase boundaries.
#[test]
fn deep_fused_chain_matches_unfused() {
    let graph = deep_chain(600);
    let toggles: Vec<i32> = (1..12).map(|i| i * 700).collect();
    let stim = vec![Waveform::from_toggles(false, &toggles)];
    let duration = 10_000;
    let cfg = SimConfig::small()
        .with_cycle_parallelism(4)
        .with_window_align(100);
    let run = |fuse: usize| {
        Session::new(Arc::clone(&graph), cfg.clone())
            .run_with(
                &stim,
                duration,
                &RunOptions::default()
                    .with_fuse_threshold(fuse)
                    .with_waveform_spill(),
            )
            .unwrap()
    };
    let fused = run(4096);
    let unfused = run(0);
    assert!(fused.app_profile.fused_launches >= 1);
    assert_eq!(unfused.app_profile.fused_launches, 0);
    assert_bit_identical(&unfused, &fused, "deep fused chain");
    // Bit-identical waveforms too, via the durable spill copies.
    for s in 0..graph.n_signals() {
        assert_eq!(
            unfused.waveform(s).unwrap(),
            fused.waveform(s).unwrap(),
            "signal {s}"
        );
    }
}

#[test]
fn wide_levels_match_refsim() {
    let graph = wide_graph(7);
    let stimuli = generate(
        graph.primary_inputs().len(),
        &StimulusConfig::random(24, 400, 0.4, 11),
    );
    let duration = 24 * 400;
    let cfg = SimConfig::small()
        .with_cycle_parallelism(8)
        .with_window_align(400);
    let ours = Session::new(Arc::clone(&graph), cfg)
        .run_with(
            &stimuli,
            duration,
            &RunOptions::default().with_waveform_spill(),
        )
        .unwrap();
    assert_matches_refsim(
        &ours,
        &refsim(&graph, &stimuli, duration),
        true,
        "wide levels",
    );
}

/// The chain outlasts its 10-tick windows (see
/// `deep_fused_chain_matches_unfused`), so the reference is the same
/// session config run unsegmented.
#[test]
fn segmented_run_matches_unsegmented() {
    let graph = deep_chain(40);
    let toggles: Vec<i32> = (1..150).map(|i| i * 10 + 5).collect();
    let stim = vec![Waveform::from_toggles(false, &toggles)];
    let cfg = SimConfig::small()
        .with_cycle_parallelism(16)
        .with_window_align(10);
    let run = |opts: RunOptions| {
        Session::new(Arc::clone(&graph), cfg.clone())
            .run_with(&stim, 1500, &opts.with_waveform_spill())
            .unwrap()
    };
    let segmented = run(RunOptions::default().with_segment_windows(4));
    let whole = run(RunOptions::default());
    assert!(segmented.segments() > 1, "test must exercise segmentation");
    assert_eq!(whole.segments(), 1);
    assert_bit_identical(&whole, &segmented, "segmented run");
    for s in 0..graph.n_signals() {
        assert_eq!(
            whole.waveform(s).unwrap(),
            segmented.waveform(s).unwrap(),
            "signal {s} across segments"
        );
    }
}

/// Records every sink delivery so two runs can be compared call-for-call.
#[derive(Default)]
struct Recorder {
    calls: Vec<(usize, usize, usize, Vec<i32>)>,
}

impl WaveformSink for Recorder {
    fn waveform(&mut self, signal: usize, info: &WindowInfo, raw: &[i32]) {
        self.calls
            .push((signal, info.window, info.segment, raw.to_vec()));
    }
}

/// A segmented streaming run delivers exactly the (signal, window, raw)
/// set an unsegmented streaming run of the same configuration does — the
/// reference cannot see per-window deliveries — and its SAIF matches the
/// event-driven reference.
#[test]
fn streaming_sink_matches_unsegmented_stream() {
    let graph = wide_graph(13);
    let stimuli = generate(
        graph.primary_inputs().len(),
        &StimulusConfig::random(16, 400, 0.5, 23),
    );
    let duration = 16 * 400;
    let cfg = SimConfig::small()
        .with_cycle_parallelism(8)
        .with_window_align(400);
    let run = |opts: RunOptions| {
        let mut sink = Recorder::default();
        let r = Session::new(Arc::clone(&graph), cfg.clone())
            .run_streaming(&stimuli, duration, &opts, &mut sink)
            .unwrap();
        (r, sink)
    };
    let (segmented, segmented_sink) = run(RunOptions::default().with_segment_windows(3));
    let (whole, whole_sink) = run(RunOptions::default());
    assert!(segmented.segments() > 1, "test must exercise segmentation");
    assert_eq!(whole.segments(), 1);
    assert_bit_identical(&whole, &segmented, "streaming run");
    assert_matches_refsim(
        &segmented,
        &refsim(&graph, &stimuli, duration),
        false,
        "streaming run",
    );
    // Segment numbers differ by construction; everything else must not.
    let deliveries = |sink: Recorder| {
        let mut calls: Vec<_> = sink
            .calls
            .into_iter()
            .map(|(signal, window, _, raw)| (window, signal, raw))
            .collect();
        calls.sort();
        calls
    };
    let segmented_calls = deliveries(segmented_sink);
    assert!(!segmented_calls.is_empty());
    assert_eq!(
        segmented_calls,
        deliveries(whole_sink),
        "sink must see identical (signal, window, raw) deliveries"
    );
}

/// A fused group wide enough to engage the pooled phase driver (widest
/// phase ≥ the device's inline threshold, so the chase-the-cursor worker
/// protocol — not the serial fast path — runs the phases): the whole
/// design forced into one phased launch by a large fuse-threshold
/// override must match the event-driven reference, including via the
/// durable spill copies.
#[test]
fn wide_fused_group_pooled_driver_matches_refsim() {
    let netlist = random_logic(&RandomLogicConfig {
        gates: 3000,
        inputs: 32,
        depth: 4,
        output_fraction: 0.1,
        seed: 91,
    });
    let graph = Arc::new(CircuitGraph::build(&netlist, None, &GraphOptions::default()).unwrap());
    let stimuli = generate(
        graph.primary_inputs().len(),
        &StimulusConfig::random(8, 400, 0.4, 17),
    );
    let duration = 8 * 400;
    let cfg = SimConfig::small()
        .with_cycle_parallelism(8)
        .with_window_align(400);
    let opts = RunOptions::default()
        .with_fuse_threshold(1 << 20)
        .with_waveform_spill();
    // An explicit 4-worker device: the pooled driver (and the parallel
    // spill drain) must engage even when the test host has few cores.
    let device = Arc::new(gatspi_gpu::Device::with_workers(
        cfg.device.clone(),
        cfg.memory_words,
        4,
    ));
    let ours = Session::with_device(Arc::clone(&graph), cfg, device)
        .run_with(&stimuli, duration, &opts)
        .unwrap();
    assert_eq!(
        ours.app_profile.launches, ours.app_profile.fused_launches,
        "every launch must be a fused phased launch"
    );
    assert!(ours.app_profile.fused_launches >= 1);
    assert_matches_refsim(
        &ours,
        &refsim(&graph, &stimuli, duration),
        true,
        "wide fused group",
    );
}

#[test]
fn multi_gpu_matches_refsim() {
    let graph = wide_graph(29);
    let stimuli = generate(
        graph.primary_inputs().len(),
        &StimulusConfig::random(16, 400, 0.35, 31),
    );
    let duration = 16 * 400;
    let cfg = SimConfig::small()
        .with_cycle_parallelism(4)
        .with_window_align(400);
    let gpus = MultiGpu::new(DeviceSpec::v100(), 2, 1 << 18);
    let ours = Session::new(Arc::clone(&graph), cfg)
        .run_multi_gpu(&gpus, &stimuli, duration)
        .unwrap();
    assert_matches_refsim(
        &ours,
        &refsim(&graph, &stimuli, duration),
        false,
        "multi-GPU run",
    );
}

/// Multi-GPU runs with waveform spill: each shard's batch is routed
/// through the spill sink and the windows merge in time order, so
/// `waveform()` works on multi-GPU results and matches a single-device
/// spilled run bit for bit.
#[test]
fn multi_gpu_spill_extracts_waveforms() {
    let graph = wide_graph(43);
    let stimuli = generate(
        graph.primary_inputs().len(),
        &StimulusConfig::random(16, 400, 0.35, 57),
    );
    let duration = 16 * 400;
    let cfg = SimConfig::small()
        .with_cycle_parallelism(4)
        .with_window_align(400);
    // The single-device reference drains through an explicit 4-worker
    // device, so the parallel drain path is compared against the
    // multi-GPU shards' (single-worker) serial drains.
    let single_cfg = cfg.clone().with_cycle_parallelism(8);
    let single_dev = Arc::new(gatspi_gpu::Device::with_workers(
        single_cfg.device.clone(),
        single_cfg.memory_words,
        4,
    ));
    let single = Session::with_device(Arc::clone(&graph), single_cfg, single_dev)
        .run_with(
            &stimuli,
            duration,
            &RunOptions::default().with_waveform_spill(),
        )
        .unwrap();
    let gpus = MultiGpu::new(DeviceSpec::v100(), 2, 1 << 18);
    let multi = Session::new(Arc::clone(&graph), cfg)
        .run_multi_gpu_with(
            &gpus,
            &stimuli,
            duration,
            &RunOptions::default().with_waveform_spill(),
        )
        .unwrap();
    assert!(multi.app_profile.d2h_bytes > 0, "spill read waveforms back");
    assert!(multi.app_profile.d2h_batches > 0);
    assert!(multi.app_profile.readback_seconds > 0.0);
    for s in 0..graph.n_signals() {
        assert_eq!(
            multi.waveform(s).unwrap(),
            single.waveform(s).unwrap(),
            "signal {s}"
        );
    }
}

// --- Speculative single-pass vs two-pass ("simulate twice") equivalence.
//
// `Speculation::Off` is the paper's Fig. 5 reference schedule; `On`/`Auto`
// replace the unconditional count pass with predicted reservations plus
// exact repair. The two allocation strategies must be bit-identical on
// every execution path.

#[test]
fn speculative_matches_two_pass_on_deep_fused_chain() {
    let graph = deep_chain(600);
    let toggles: Vec<i32> = (1..12).map(|i| i * 700).collect();
    let stim = vec![Waveform::from_toggles(false, &toggles)];
    let duration = 10_000;
    let cfg = SimConfig::small()
        .with_cycle_parallelism(4)
        .with_window_align(100);
    let run = |spec: Speculation| {
        Session::new(Arc::clone(&graph), cfg.clone().with_speculation(spec))
            .run_with(
                &stim,
                duration,
                &RunOptions::default().with_waveform_spill(),
            )
            .unwrap()
    };
    let two_pass = run(Speculation::Off);
    let spec = run(Speculation::Auto);
    assert_bit_identical(&two_pass, &spec, "deep fused chain (speculation)");
    for s in 0..graph.n_signals() {
        assert_eq!(
            two_pass.waveform(s).unwrap(),
            spec.waveform(s).unwrap(),
            "signal {s}"
        );
    }
    assert!(
        spec.app_profile.speculative_hit_rate > 0.0,
        "the speculative path must actually have run"
    );
    assert_eq!(two_pass.app_profile.speculative_hit_rate, 0.0);
}

#[test]
fn speculative_matches_two_pass_on_wide_classic_levels() {
    let graph = wide_graph(7);
    let stimuli = generate(
        graph.primary_inputs().len(),
        &StimulusConfig::random(24, 400, 0.4, 11),
    );
    let duration = 24 * 400;
    let cfg = SimConfig::small()
        .with_cycle_parallelism(8)
        .with_window_align(400)
        .with_fuse_threshold(0);
    let run = |spec: Speculation| {
        Session::new(Arc::clone(&graph), cfg.clone().with_speculation(spec))
            .run(&stimuli, duration)
            .unwrap()
    };
    let two_pass = run(Speculation::Off);
    let spec = run(Speculation::On);
    assert_bit_identical(&two_pass, &spec, "wide classic levels (speculation)");
    assert!(
        spec.app_profile.launches < two_pass.app_profile.launches,
        "a well-predicted single pass must launch less than simulate-twice"
    );
}

#[test]
fn speculative_matches_two_pass_under_segmentation() {
    let graph = deep_chain(40);
    let toggles: Vec<i32> = (1..150).map(|i| i * 10 + 5).collect();
    let stim = vec![Waveform::from_toggles(false, &toggles)];
    let cfg = SimConfig::small()
        .with_cycle_parallelism(16)
        .with_window_align(10);
    let run = |spec: Speculation| {
        Session::new(Arc::clone(&graph), cfg.clone().with_speculation(spec))
            .run_with(
                &stim,
                1500,
                &RunOptions::default()
                    .with_segment_windows(4)
                    .with_waveform_spill(),
            )
            .unwrap()
    };
    let two_pass = run(Speculation::Off);
    let spec = run(Speculation::Auto);
    assert!(two_pass.segments() > 1, "test must exercise segmentation");
    assert_bit_identical(&two_pass, &spec, "segmented run (speculation)");
    for s in 0..graph.n_signals() {
        assert_eq!(
            two_pass.waveform(s).unwrap(),
            spec.waveform(s).unwrap(),
            "signal {s} across segments"
        );
    }
}

#[test]
fn speculative_matches_two_pass_through_streaming_sink() {
    let graph = wide_graph(13);
    let stimuli = generate(
        graph.primary_inputs().len(),
        &StimulusConfig::random(16, 400, 0.5, 23),
    );
    let duration = 16 * 400;
    let cfg = SimConfig::small()
        .with_cycle_parallelism(8)
        .with_window_align(400);
    let run = |spec: Speculation| {
        let mut sink = Recorder::default();
        let r = Session::new(Arc::clone(&graph), cfg.clone().with_speculation(spec))
            .run_streaming(
                &stimuli,
                duration,
                &RunOptions::default().with_segment_windows(3),
                &mut sink,
            )
            .unwrap();
        (r, sink)
    };
    let (two_pass, two_pass_sink) = run(Speculation::Off);
    let (spec, spec_sink) = run(Speculation::Auto);
    assert_bit_identical(&two_pass, &spec, "streaming run (speculation)");
    assert!(!two_pass_sink.calls.is_empty());
    assert_eq!(
        two_pass_sink.calls, spec_sink.calls,
        "sink must see identical (signal, window, segment, raw) sequences"
    );
}

#[test]
fn speculative_matches_two_pass_on_multi_gpu() {
    let graph = wide_graph(29);
    let stimuli = generate(
        graph.primary_inputs().len(),
        &StimulusConfig::random(16, 400, 0.35, 31),
    );
    let duration = 16 * 400;
    let cfg = SimConfig::small()
        .with_cycle_parallelism(4)
        .with_window_align(400);
    let run = |spec: Speculation| {
        let gpus = MultiGpu::new(DeviceSpec::v100(), 2, 1 << 18);
        Session::new(Arc::clone(&graph), cfg.clone().with_speculation(spec))
            .run_multi_gpu(&gpus, &stimuli, duration)
            .unwrap()
    };
    let two_pass = run(Speculation::Off);
    let spec = run(Speculation::Auto);
    assert_bit_identical(&two_pass, &spec, "multi-GPU run (speculation)");
}

#[test]
fn speculative_matches_two_pass_on_incremental_rerun() {
    let graph = wide_graph(51);
    let stimuli = generate(
        graph.primary_inputs().len(),
        &StimulusConfig::random(16, 400, 0.4, 41),
    );
    let duration = 16 * 400;
    let cfg = SimConfig::small()
        .with_cycle_parallelism(4)
        .with_window_align(400);
    let changed = vec![5usize, 40];
    let run = |spec: Speculation| {
        let sim = Session::new(Arc::clone(&graph), cfg.clone().with_speculation(spec));
        let opts = RunOptions::default().with_waveform_spill();
        // The full run populates the session's extent history; the cone
        // sub-plan seeds from it, so the delta run speculates warm.
        let full = sim.run_with(&stimuli, duration, &opts).unwrap();
        sim.run_incremental(&full, &changed, &stimuli, duration, &opts)
            .unwrap()
    };
    let two_pass = run(Speculation::Off);
    let spec = run(Speculation::Auto);
    assert_bit_identical(&two_pass, &spec, "incremental rerun (speculation)");
    for s in 0..graph.n_signals() {
        assert_eq!(
            two_pass.waveform(s).unwrap(),
            spec.waveform(s).unwrap(),
            "signal {s} after the delta run"
        );
    }
}

/// Poisoned extent history — a 2-word budget for every gate — forces an
/// overflow on essentially every toggling (gate, window) thread, so the
/// final output is produced almost entirely by the exact repair launches.
/// The result must still be bit-identical to simulate-twice: repair alone
/// reproduces the reference output.
#[test]
fn forced_overflow_repair_reproduces_two_pass_exactly() {
    let graph = wide_graph(67);
    let stimuli = generate(
        graph.primary_inputs().len(),
        &StimulusConfig::random(16, 400, 0.5, 73),
    );
    let duration = 16 * 400;
    for fuse in [0usize, 4096] {
        let cfg = SimConfig::small()
            .with_cycle_parallelism(8)
            .with_window_align(400)
            .with_fuse_threshold(fuse);
        let two_pass = Session::new(
            Arc::clone(&graph),
            cfg.clone().with_speculation(Speculation::Off),
        )
        .run_with(
            &stimuli,
            duration,
            &RunOptions::default().with_waveform_spill(),
        )
        .unwrap();
        let sim = Session::new(
            Arc::clone(&graph),
            cfg.clone().with_speculation(Speculation::On),
        );
        sim.seed_extent_history(2);
        let spec = sim
            .run_with(
                &stimuli,
                duration,
                &RunOptions::default().with_waveform_spill(),
            )
            .unwrap();
        assert!(
            spec.app_profile.overflow_repairs > 0,
            "fuse {fuse}: tiny seeded budgets must overflow"
        );
        assert_bit_identical(&two_pass, &spec, "forced overflow");
        for s in 0..graph.n_signals() {
            assert_eq!(
                two_pass.waveform(s).unwrap(),
                spec.waveform(s).unwrap(),
                "fuse {fuse}: signal {s} from repair"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 12,
        .. ProptestConfig::default()
    })]

    /// Random design + random delays + random stimulus: the executor
    /// (speculative by default) must stay bit-identical to the two-pass
    /// schedule and to the event-driven reference.
    #[test]
    fn pipelined_executor_bit_identical_on_random_designs(
        seed in 0u64..5000,
        gates in 30usize..180,
        depth in 3usize..9,
        toggle_prob in 0.05f64..0.9,
        parallelism in 1usize..6,
        fuse_sel in 0usize..3,
    ) {
        // Unfused / small fused groups / default fusion.
        let fuse = [0usize, 64, 4096][fuse_sel];
        let netlist = random_logic(&RandomLogicConfig {
            gates,
            inputs: 10,
            depth,
            output_fraction: 0.1,
            seed,
        });
        let sdf = attach_sdf(&netlist, &SdfGenConfig {
            seed: seed ^ 0xF00D,
            ..SdfGenConfig::default()
        });
        let graph = Arc::new(
            CircuitGraph::build(&netlist, Some(&sdf), &GraphOptions::default()).unwrap(),
        );
        let cycle = 400;
        let cycles = 16usize;
        let stimuli = generate(
            graph.primary_inputs().len(),
            &StimulusConfig::random(cycles, cycle, toggle_prob, seed ^ 0x77),
        );
        let duration = cycle * cycles as i32;
        let cfg = SimConfig::small()
            .with_cycle_parallelism(parallelism)
            .with_window_align(cycle)
            .with_fuse_threshold(fuse);
        let ours = Session::new(Arc::clone(&graph), cfg.clone())
            .run(&stimuli, duration)
            .unwrap();

        // The run above speculates (Auto default); the two-pass reference
        // schedule must agree bit for bit.
        let two_pass = Session::new(
            Arc::clone(&graph),
            cfg.clone().with_speculation(Speculation::Off),
        )
        .run(&stimuli, duration)
        .unwrap();
        prop_assert!(two_pass.saif.diff(&ours.saif).is_empty(),
            "speculative vs two-pass SAIF diverged");
        prop_assert_eq!(two_pass.toggle_counts_slice(), ours.toggle_counts_slice());

        let r = EventSimulator::new(&graph, RefConfig {
            record_waveforms: false,
            ..RefConfig::default()
        })
        .run(&stimuli, duration)
        .unwrap();
        prop_assert!(ours.saif.diff(&r.saif).is_empty(),
            "executor diverged from refsim");
    }
}
