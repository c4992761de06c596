//! End-to-end and per-layer benchmark of the GATSPI workspace.
//!
//! One invocation generates a workload's inputs from a seed, drives them
//! through the public API of every layer, checks every output against the
//! event-driven reference (`gatspi-refsim`) and reports either the
//! end-to-end metrics (untraced) or the per-layer metrics of an additional
//! traced pass. See `README.md` beside this crate for the workloads, the
//! metrics and what each layer is expected to move.

pub mod check;
mod eco;
pub mod layers;
pub mod report;
mod text_saif;
pub mod trace;
pub mod workload;

use std::fmt::Write as _;
use std::path::PathBuf;

use gatspi_core::SimConfig;

use crate::check::Checker;
use crate::report::{json_number, median, summary};
use crate::trace::{SpanTree, Tracer};
use crate::workload::{generate_inputs, Inputs, Scale, Workload};

/// Error type of the benchmark's own plumbing.
pub type BenchResult<T> = Result<T, Box<dyn std::error::Error>>;

/// One invocation's settings.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Which workload to run.
    pub workload: Workload,
    /// Input-generation seed.
    pub seed: u64,
    /// Seconds of warm repetitions.
    pub seconds: f64,
    /// Add the traced pass and report per-layer metrics.
    pub trace: bool,
    /// Input size.
    pub scale: Scale,
    /// Directory for generated inputs, outputs and the trace file.
    pub out_dir: PathBuf,
}

/// What one invocation measured.
#[derive(Debug)]
pub struct Outcome {
    /// Outputs checked against the reference.
    pub attempted: u64,
    /// Outputs that failed their check.
    pub failed: u64,
    /// End-to-end metrics when untraced, per-layer metrics when traced.
    pub metrics: Vec<(&'static str, f64)>,
    /// Host fingerprint and size counts, as a JSON object.
    pub context: String,
    /// Where the span tree was written (traced runs only).
    pub trace_file: Option<PathBuf>,
}

/// Samples and sizes a measured path hands back.
pub(crate) struct Measured {
    /// Timed samples.
    pub samples: layers::Samples,
    /// Gates in the design.
    pub gates: usize,
    /// Signals in the design.
    pub signals: usize,
    /// Toggles of one full run, per case.
    pub toggles: Vec<u64>,
    /// Gates an incremental run re-simulates, per case.
    pub incremental_gates: Vec<usize>,
    /// Host workers of the device.
    pub device_workers: usize,
    /// The traced pass, when tracing.
    pub traced: Option<TracedPass>,
}

impl Measured {
    /// Both cases' samples and sizes; the first case's traced pass.
    fn merge(mut self, other: Measured) -> Measured {
        let (a, b) = (&mut self.samples, other.samples);
        a.setup.extend(b.setup);
        a.turnaround.extend(b.turnaround);
        a.full.extend(b.full);
        a.incremental.extend(b.incremental);
        a.host_probe_ms.extend(b.host_probe_ms);
        self.toggles.extend(other.toggles);
        self.incremental_gates.extend(other.incremental_gates);
        self
    }
}

/// The seed of an invocation's `case`-th input set; case 0 uses the
/// invocation's seed itself.
pub fn case_seed(seed: u64, case: usize) -> u64 {
    seed.wrapping_add((case as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

/// Decomposition figures of the traced pass.
pub(crate) struct TracedPass {
    /// Seconds of the traced turnaround.
    pub turnaround: f64,
    /// Part of the traced turnaround (or of its replay) no span covers.
    pub residual: f64,
    /// Part of the power layer's outer span its replicated calls miss.
    pub flow_residual: f64,
}

/// The host probe's median, in milliseconds, on the reference host: a
/// 2-vCPU KVM guest on an Intel Xeon (Sapphire Rapids, 2 MiB L2 per core,
/// 105 MiB shared L3) in a quiet period.
pub const PROBE_NOMINAL_MS: f64 = 15.0;

/// How much faster than nominal the host ran during an invocation: the
/// nominal probe time over the median of the probes taken between the
/// timed steps. End-to-end times are the measured medians times this
/// factor, i.e. seconds at the reference host's nominal speed; the raw
/// sample summaries stay in the context line.
pub fn host_factor(probe_ms: &[f64]) -> f64 {
    PROBE_NOMINAL_MS / median(probe_ms)
}

/// The engine configuration every workload runs with.
pub(crate) fn sim_config(inputs: &Inputs, scale: Scale) -> SimConfig {
    let base = match scale {
        Scale::Full => SimConfig::default(),
        Scale::Tiny => SimConfig::small(),
    };
    base.with_window_align(inputs.cycle_time)
}

/// Runs one invocation.
///
/// # Errors
///
/// Fails when the inputs cannot be written, a traced call fails, or a
/// path produced no successful sample to report.
pub fn run(cfg: &RunConfig) -> BenchResult<Outcome> {
    let tracer = Tracer::new(cfg.trace);
    let untraced = Tracer::new(false);
    let mut checker = Checker::default();
    let cases = cfg.workload.shape(cfg.scale).cases;
    // Each case gets an equal share of the time; only the first is traced.
    let case_cfg = RunConfig {
        seconds: cfg.seconds / cases as f64,
        ..cfg.clone()
    };
    let mut m: Option<Measured> = None;
    let mut sizes = None;
    for case in 0..cases {
        let dir = cfg.out_dir.join(format!(
            "{}-seed{}-case{case}",
            cfg.workload.name(),
            cfg.seed
        ));
        let seed = case_seed(cfg.seed, case);
        let inputs = generate_inputs(cfg.workload, cfg.scale, seed, &dir)?;
        let tr = if case == 0 { &tracer } else { &untraced };
        let measured = match cfg.workload {
            Workload::EcoGlitchFlow => eco::measure(&case_cfg, &inputs, &mut checker, tr, &dir),
            _ => text_saif::measure(&case_cfg, &inputs, &mut checker, tr, &dir),
        };
        std::fs::remove_dir_all(&dir)?;
        let measured = measured?;
        sizes.get_or_insert((inputs.cycles, sim_config(&inputs, cfg.scale).memory_words));
        m = Some(match m {
            None => measured,
            Some(acc) => acc.merge(measured),
        });
    }
    let (m, (cycles, memory_words)) = m.zip(sizes).ok_or("no case ran")?;

    for (what, v) in [
        ("host probe", &m.samples.host_probe_ms),
        ("set-up", &m.samples.setup),
        ("turnaround", &m.samples.turnaround),
        ("warm full run", &m.samples.full),
        ("warm incremental run", &m.samples.incremental),
    ] {
        if v.is_empty() {
            return Err(format!("no successful {what} to report").into());
        }
    }
    let sim_s = median(&m.samples.full);
    let context = context_json(cfg, cycles, memory_words, &m);
    let (metrics, trace_file) = match &m.traced {
        None => (end_to_end(&m, cycles)?, None),
        Some(t) => {
            let tree = SpanTree::new(tracer.spans());
            let metrics = per_layer(&tree, t, &m, sim_s, &checker)?;
            let path = cfg.out_dir.join(format!(
                "trace-{}-seed{}.json",
                cfg.workload.name(),
                cfg.seed
            ));
            std::fs::write(
                &path,
                format!(
                    "{{\n  \"context\": {context},\n  \"spans\": {}\n}}\n",
                    tree.to_json()
                ),
            )?;
            (metrics, Some(path))
        }
    };
    if let Some((name, _)) = metrics.iter().find(|(_, v)| !v.is_finite()) {
        return Err(format!("metric {name} is not finite").into());
    }
    Ok(Outcome {
        attempted: checker.attempted(),
        failed: checker.failed(),
        metrics,
        context,
        trace_file,
    })
}

fn end_to_end(m: &Measured, cycles: usize) -> BenchResult<Vec<(&'static str, f64)>> {
    let k = host_factor(&m.samples.host_probe_ms);
    let sim_s = median(&m.samples.full) * k;
    Ok(vec![
        ("setup_s", median(&m.samples.setup) * k),
        ("sim_s", sim_s),
        ("turnaround_s", median(&m.samples.turnaround) * k),
        ("incremental_s", median(&m.samples.incremental) * k),
        ("gate_cycles_per_s", (m.gates * cycles) as f64 / sim_s),
        ("peak_rss_mb", peak_rss_mb()?),
    ])
}

fn per_layer(
    tree: &SpanTree,
    t: &TracedPass,
    m: &Measured,
    sim_s: f64,
    checker: &Checker,
) -> BenchResult<Vec<(&'static str, f64)>> {
    let counter = |span: &str, name: &str| {
        tree.counter(span, name)
            .ok_or_else(|| format!("span {span} has no counter {name}"))
    };
    let run_s = tree.total("core.run");
    let refsim_s = tree.total("refsim.run");
    Ok(vec![
        ("netlist.parse_s", tree.total("netlist.parse")),
        ("sdf.parse_s", tree.total("sdf.parse")),
        ("wave.vcd_parse_s", tree.total("wave.vcd_parse")),
        ("wave.saif_write_s", tree.total("wave.saif_write")),
        ("graph.build_s", tree.total("graph.build")),
        ("gpu.device_new_s", tree.total("gpu.device_new")),
        ("core.session_new_s", tree.total("core.session_new")),
        ("core.run_s", run_s),
        (
            "core.ns_per_toggle",
            run_s * 1e9 / counter("core.run", "toggles")?,
        ),
        ("core.toggles", counter("core.run", "toggles")?),
        ("core.launches", counter("core.run", "launches")?),
        ("core.segments", counter("core.run", "segments")?),
        ("core.spill_run_s", tree.total("core.spill_run")),
        (
            "core.waveform_rebuild_s",
            tree.total("core.waveform_rebuild"),
        ),
        (
            "core.d2h_batches",
            counter("core.spill_run", "d2h_batches")?,
        ),
        ("core.d2h_bytes", counter("core.spill_run", "d2h_bytes")?),
        ("core.incremental_s", tree.total("core.incremental")),
        (
            "core.plan_cache_hits",
            counter("core.incremental", "plan_cache_hits")?,
        ),
        (
            "core.plan_cache_misses",
            counter("core.incremental", "plan_cache_misses")?,
        ),
        (
            "core.cone_plan_hits",
            counter("core.incremental", "cone_plan_hits")?,
        ),
        ("core.spec_hit_rate", counter("core.run", "spec_hit_rate")?),
        (
            "core.overflow_repairs",
            counter("core.run", "overflow_repairs")?,
        ),
        ("power.classify_s", tree.total("power.classify")),
        ("power.estimate_s", tree.total("power.estimate")),
        ("power.sta_s", tree.total("power.sta")),
        ("power.flow_residual_s", t.flow_residual),
        ("refsim.run_s", refsim_s),
        ("refsim.speedup", refsim_s / sim_s),
        ("trace.residual_s", t.residual),
        (
            "trace.overhead_s",
            t.turnaround - median(&m.samples.turnaround),
        ),
        ("error_rate", checker.error_rate()),
    ])
}

/// Peak resident memory of this process, in MiB (`VmHWM`).
fn peak_rss_mb() -> BenchResult<f64> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// Host fingerprint and size counts, so figures from different hosts or
/// sizes are never mixed.
fn context_json(cfg: &RunConfig, cycles: usize, memory_words: usize, m: &Measured) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut out = String::from("{");
    let _ = write!(
        out,
        "\"workload\": \"{}\", \"seed\": {}, \"scale\": \"{:?}\", \"trace\": {}, \
         \"nproc\": {nproc}, \"device_workers\": {}, \"memory_words\": {}, \
         \"gates\": {}, \"signals\": {}, \"cycles\": {}, \"toggles\": {:?}, \"incremental_gates\": {:?}, \
         \"host_factor\": {}, \
         \"samples\": {{\"setup_s\": {}, \"turnaround_s\": {}, \"sim_s\": {}, \"incremental_s\": {}, \"host_probe_ms\": {}}}",
        cfg.workload.name(),
        cfg.seed,
        cfg.scale,
        cfg.trace,
        m.device_workers,
        memory_words,
        m.gates,
        m.signals,
        cycles,
        m.toggles,
        m.incremental_gates,
        json_number(host_factor(&m.samples.host_probe_ms)),
        summary(&m.samples.setup),
        summary(&m.samples.turnaround),
        summary(&m.samples.full),
        summary(&m.samples.incremental),
        summary(&m.samples.host_probe_ms),
    );
    out.push('}');
    out
}
