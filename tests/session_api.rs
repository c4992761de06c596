//! Session-API acceptance tests: cached plans across segments and
//! multi-GPU shards, host-spilled waveforms for segmented runs, streaming
//! sinks, and argument validation on every run entry point.

use std::sync::Arc;

use gatspi_core::{CoreError, RunOptions, Session, SimConfig, WaveformSink, WindowInfo};
use gatspi_gpu::{DeviceSpec, MultiGpu};
use gatspi_workloads::suite::{table2_suite, BuiltBenchmark};

fn bench(scale: f64) -> BuiltBenchmark {
    table2_suite()[0].build_at_scale(scale)
}

fn session(b: &BuiltBenchmark, parallelism: usize) -> Session {
    let cfg = SimConfig::small()
        .with_cycle_parallelism(parallelism)
        .with_window_align(b.cycle_time);
    Session::new(Arc::clone(&b.graph), cfg)
}

/// Equal-window-count segments share one `LevelSchedule` build: forcing a
/// run into equal segments must report exactly one plan miss, and the
/// split run must match the unsegmented one bit-exactly.
#[test]
fn equal_nw_segments_build_schedule_once() {
    let b = bench(0.15);
    let sim = session(&b, 8);
    let whole = sim.run(&b.stimuli, b.duration).expect("whole run");

    let split_sim = session(&b, 8);
    let r = split_sim
        .run_with(
            &b.stimuli,
            b.duration,
            &RunOptions::default().with_segment_windows(4),
        )
        .expect("split run");
    assert_eq!(r.segments(), 2, "8 windows capped at 4 → two segments");
    let stats = split_sim.plan_cache_stats();
    assert_eq!(
        stats.misses, 1,
        "two equal-nw segments must build the LevelSchedule exactly once"
    );
    assert_eq!(stats.hits, 1);
    assert!(whole.saif.diff(&r.saif).is_empty());
}

/// Multi-GPU sharding builds one schedule for the whole run (even shards)
/// and matches the single-device result bit-exactly.
#[test]
fn multi_gpu_shares_one_schedule_and_matches() {
    let b = bench(0.2);
    let single = session(&b, 8)
        .run(&b.stimuli, b.duration)
        .expect("single run");

    let sim = session(&b, 4);
    let gpus = MultiGpu::new(DeviceSpec::v100(), 2, 1 << 20);
    let multi = sim
        .run_multi_gpu(&gpus, &b.stimuli, b.duration)
        .expect("multi run");
    let stats = sim.plan_cache_stats();
    assert_eq!(
        stats.misses, 1,
        "even shards: one LevelSchedule build per multi-GPU run"
    );
    // The failover-aware fan-out pre-warms every shard's plan before the
    // shard threads start (gpus.len() lookups, one miss), then each shard
    // re-resolves its warm plan at execution time: 2·gpus.len() − 1 hits.
    assert_eq!(stats.hits as usize, 2 * gpus.len() - 1);
    assert!(single.saif.diff(&multi.saif).is_empty());
    assert_eq!(single.total_toggles(), multi.total_toggles());
}

/// Host waveform spill: a segmented run returns the same full-duration
/// waveform for *every* signal as the unsegmented reference run.
#[test]
fn segmented_waveforms_correct_after_host_spill() {
    let b = bench(0.2);
    let roomy = session(&b, 16).run(&b.stimuli, b.duration).expect("roomy");
    assert_eq!(roomy.segments(), 1);

    let tight_cfg = SimConfig {
        memory_words: 40_000,
        ..SimConfig::small()
    }
    .with_cycle_parallelism(16)
    .with_window_align(b.cycle_time);
    let tight = Session::new(Arc::clone(&b.graph), tight_cfg)
        .run_with(
            &b.stimuli,
            b.duration,
            &RunOptions::default().with_waveform_spill(),
        )
        .expect("segmented run");
    assert!(tight.segments() > 1, "expected segmentation");
    assert!(roomy.saif.diff(&tight.saif).is_empty());
    for s in 0..b.graph.n_signals() {
        assert_eq!(
            roomy.waveform(s).expect("device extraction"),
            tight.waveform(s).expect("host spill"),
            "signal {s} diverged after host spill"
        );
    }
}

/// A streaming sink observes every window exactly once, in run order, and
/// raw windows agree with `SimResult::raw_window` on the spilled result.
#[test]
fn streaming_sink_observes_run_in_order() {
    #[derive(Default)]
    struct Collect {
        seen: Vec<(usize, usize)>, // (window, segment)
        raws: Vec<(usize, usize, Vec<i32>)>,
    }
    impl WaveformSink for Collect {
        fn waveform(&mut self, signal: usize, info: &WindowInfo, raw: &[i32]) {
            if self.seen.last().map(|&(w, _)| w) != Some(info.window) {
                self.seen.push((info.window, info.segment));
            }
            self.raws.push((signal, info.window, raw.to_vec()));
        }
    }

    let b = bench(0.15);
    let sim = session(&b, 4);
    let mut sink = Collect::default();
    let r = sim
        .run_streaming(
            &b.stimuli,
            b.duration,
            &RunOptions::default()
                .with_waveform_spill()
                .with_segment_windows(2),
            &mut sink,
        )
        .expect("streaming run");
    assert_eq!(r.segments(), 2);
    // Windows arrive strictly in order, with monotone segment indices.
    let windows: Vec<usize> = sink.seen.iter().map(|&(w, _)| w).collect();
    assert_eq!(windows, (0..windows.len()).collect::<Vec<_>>());
    assert!(sink.seen.windows(2).all(|p| p[0].1 <= p[1].1));
    // The user sink and the built-in spill saw the same raw words.
    for (signal, window, raw) in sink.raws.iter().take(64) {
        let from_result = r.raw_window(*signal, *window).expect("raw window");
        assert!(
            raw.starts_with(&from_result),
            "sink raw must begin with the stored waveform up to EOW"
        );
    }
}

/// A negative run duration is a caller error, not a panic: every run
/// entry point rejects it with `CoreError::BadConfig`.
#[test]
fn negative_duration_is_rejected_on_every_entry_point() {
    let b = bench(0.15);
    let sim = session(&b, 4);
    let opts = RunOptions::default().with_waveform_spill();
    let bad = |r: gatspi_core::Result<_>, what: &str| {
        assert!(
            matches!(r, Err(CoreError::BadConfig { .. })),
            "{what}: expected BadConfig"
        );
    };
    bad(sim.run(&b.stimuli, -1).map(drop), "run");
    let prev = sim
        .run_with(&b.stimuli, b.duration, &opts)
        .expect("full run");
    bad(
        sim.run_incremental(&prev, &[0], &b.stimuli, -1, &opts)
            .map(drop),
        "run_incremental",
    );
    let gpus = MultiGpu::new(DeviceSpec::v100(), 2, 1 << 20);
    bad(
        sim.run_multi_gpu(&gpus, &b.stimuli, -1).map(drop),
        "run_multi_gpu",
    );
    bad(
        sim.run_to_saif(&b.stimuli, -1, &RunOptions::default())
            .map(drop),
        "run_to_saif",
    );
}

/// Repeated stimuli against one session (the paper's re-simulation loop)
/// never rebuild the plan, and results are reproducible.
#[test]
fn repeated_runs_reuse_plans() {
    let b = bench(0.15);
    let sim = session(&b, 8);
    let first = sim.run(&b.stimuli, b.duration).expect("run 1");
    for _ in 0..3 {
        let again = sim.run(&b.stimuli, b.duration).expect("run n");
        assert!(first.saif.diff(&again.saif).is_empty());
    }
    let stats = sim.plan_cache_stats();
    assert_eq!(stats.misses, 1, "one build across four runs");
    assert_eq!(stats.hits, 3);
}
