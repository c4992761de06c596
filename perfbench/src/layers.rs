//! The benchmark's calls into each layer's public API, each wrapped in a
//! span named after the layer, plus the helpers both paths share.

use std::collections::{HashMap, HashSet};
use std::fs;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use gatspi_core::{Session, SimConfig, SimResult};
use gatspi_gpu::Device;
use gatspi_graph::{CircuitGraph, GraphOptions};
use gatspi_netlist::{verilog, CellLibrary, Netlist};
use gatspi_refsim::{EventSimulator, RefConfig};
use gatspi_sdf::{DelayTriple, SdfFile};
use gatspi_wave::saif::SaifDocument;
use gatspi_wave::vcd::{self, VcdDocument};
use gatspi_wave::{SimTime, Waveform};

use crate::check::Checker;
use crate::trace::{SpanGuard, Tracer};
use crate::workload::InputFiles;
use crate::BenchResult;

/// The three input files, parsed.
pub struct Parsed {
    /// Parsed Verilog.
    pub netlist: Netlist,
    /// Parsed SDF.
    pub sdf: SdfFile,
    /// Parsed VCD testbench.
    pub vcd: VcdDocument,
}

/// Everything `gatspi sim` holds before its first run.
pub struct Setup {
    /// Parsed netlist.
    pub netlist: Netlist,
    /// Parsed SDF.
    pub sdf: SdfFile,
    /// Compiled graph.
    pub graph: Arc<CircuitGraph>,
    /// Stimuli in the graph's primary-input order.
    pub stimuli: Vec<Waveform>,
    /// Session on a fresh device.
    pub session: Session,
}

/// Reads and parses the Verilog, SDF and VCD files.
pub fn parse_inputs(files: &InputFiles, tr: &Tracer) -> BenchResult<Parsed> {
    let text = fs::read_to_string(&files.netlist)?;
    let netlist = tr.time("netlist.parse", || {
        verilog::parse(&text, CellLibrary::industry_mini())
    })?;
    let text = fs::read_to_string(&files.sdf)?;
    let sdf = tr.time("sdf.parse", || SdfFile::parse(&text))?;
    let text = fs::read_to_string(&files.vcd)?;
    let vcd = tr.time("wave.vcd_parse", || vcd::parse(&text))?;
    Ok(Parsed { netlist, sdf, vcd })
}

/// `CircuitGraph::build` with default options.
pub fn build_graph(
    netlist: &Netlist,
    sdf: &SdfFile,
    tr: &Tracer,
) -> BenchResult<Arc<CircuitGraph>> {
    let graph = tr.time("graph.build", || {
        CircuitGraph::build(netlist, Some(sdf), &GraphOptions::default())
    })?;
    Ok(Arc::new(graph))
}

/// A session on a fresh device with the default worker count — what
/// `Session::new` does, split at the device boundary.
pub fn open_session(graph: Arc<CircuitGraph>, cfg: &SimConfig, tr: &Tracer) -> Session {
    let device = tr.time("gpu.device_new", || {
        Arc::new(Device::new(cfg.device.clone(), cfg.memory_words))
    });
    tr.time("core.session_new", || {
        Session::with_device(graph, cfg.clone(), device)
    })
}

/// The VCD waveforms of `names`, in that order.
pub fn stimuli_by_name<'a>(
    names: impl IntoIterator<Item = &'a str>,
    vcd: &VcdDocument,
) -> BenchResult<Vec<Waveform>> {
    names
        .into_iter()
        .map(|n| {
            vcd.signals
                .get(n)
                .cloned()
                .ok_or_else(|| format!("vcd misses input `{n}`").into())
        })
        .collect()
}

/// The text-to-SAIF set-up of `gatspi sim`: parse the three files, build
/// the graph, bind the stimuli and open a session.
pub fn setup(files: &InputFiles, cfg: &SimConfig, tr: &Tracer) -> BenchResult<Setup> {
    let Parsed { netlist, sdf, vcd } = parse_inputs(files, tr)?;
    let graph = build_graph(&netlist, &sdf, tr)?;
    let stimuli = stimuli_by_name(
        graph.primary_inputs().iter().map(|&s| graph.signal_name(s)),
        &vcd,
    )?;
    let session = open_session(Arc::clone(&graph), cfg, tr);
    Ok(Setup {
        netlist,
        sdf,
        graph,
        stimuli,
        session,
    })
}

/// The event-driven reference SAIF of a design built straight from the
/// generated (never serialised) netlist and SDF.
pub fn reference(
    netlist: &Netlist,
    sdf: &SdfFile,
    stimuli: &[Waveform],
    duration: SimTime,
    span: &'static str,
    tr: &Tracer,
) -> BenchResult<SaifDocument> {
    let graph = CircuitGraph::build(netlist, Some(sdf), &GraphOptions::default())?;
    let rc = RefConfig {
        record_waveforms: false,
        ..RefConfig::default()
    };
    let r = tr.time(span, || {
        EventSimulator::new(&graph, rc).run(stimuli, duration)
    })?;
    Ok(r.saif)
}

/// Every signal's waveform, rebuilt from a spilled run.
pub fn all_waveforms(r: &SimResult, graph: &CircuitGraph) -> gatspi_core::Result<Vec<Waveform>> {
    (0..graph.n_signals()).map(|s| r.waveform(s)).collect()
}

/// The `n` gates on the latest logic levels (ties by index): endpoint
/// fixes with small fan-out cones.
pub fn latest_level_gates(graph: &CircuitGraph, n: usize) -> Vec<usize> {
    let mut gates: Vec<usize> = (0..graph.n_gates()).collect();
    gates.sort_by_key(|&g| std::cmp::Reverse(graph.gate_level(g)));
    gates.truncate(n);
    gates
}

/// Gates in the transitive fan-out of `changed`, themselves included: the
/// gates an incremental run re-simulates.
pub fn cone_gates(graph: &CircuitGraph, changed: &[usize]) -> usize {
    let mut readers = vec![Vec::new(); graph.n_signals()];
    for g in 0..graph.n_gates() {
        for &s in graph.gate_fanin(g) {
            readers[s as usize].push(g);
        }
    }
    let mut seen = vec![false; graph.n_gates()];
    let mut stack = changed.to_vec();
    let mut n = 0;
    while let Some(g) = stack.pop() {
        if !std::mem::replace(&mut seen[g], true) {
            n += 1;
            stack.extend(&readers[graph.gate_output(g).index()]);
        }
    }
    n
}

/// `sdf` with every IOPATH of the `fixed` instances scaled by `slowdown`
/// and rounded — the downsizing `run_glitch_flow` applies.
pub fn slowed_sdf(sdf: &SdfFile, fixed: &[String], slowdown: f64) -> SdfFile {
    let fixed: HashSet<&str> = fixed.iter().map(String::as_str).collect();
    let scale = |t: &mut DelayTriple| {
        for v in [&mut t.min, &mut t.typ, &mut t.max] {
            *v = v.map(|x| (x * slowdown).round());
        }
    };
    let mut out = sdf.clone();
    for cell in &mut out.cells {
        if cell.instance.as_deref().is_some_and(|i| fixed.contains(i)) {
            for p in &mut cell.iopaths {
                scale(&mut p.rise);
                scale(&mut p.fall);
            }
        }
    }
    out
}

/// Gate indices of the named instances.
pub fn gate_ids(netlist: &Netlist, names: &[String]) -> BenchResult<Vec<usize>> {
    let by_name: HashMap<&str, usize> = netlist
        .gates()
        .map(|(id, g)| (g.name(), id.index()))
        .collect();
    names
        .iter()
        .map(|n| {
            by_name
                .get(n.as_str())
                .copied()
                .ok_or_else(|| format!("no gate named `{n}`").into())
        })
        .collect()
}

/// Attaches a full run's kernel counters to its span.
pub fn count_run(span: &SpanGuard<'_>, r: &SimResult) {
    span.count("toggles", r.total_toggles() as f64);
    span.count("launches", r.app_profile.launches as f64);
    span.count("segments", r.segments() as f64);
    span.count("spec_hit_rate", r.app_profile.speculative_hit_rate);
    span.count("overflow_repairs", r.app_profile.overflow_repairs as f64);
    span.count("d2h_batches", r.app_profile.d2h_batches as f64);
    span.count("d2h_bytes", r.app_profile.d2h_bytes as f64);
}

/// Runs `incremental` in a `core.incremental` span carrying the
/// session's plan-cache activity during the call.
pub fn traced_incremental(
    session: &Session,
    incremental: impl FnOnce() -> gatspi_core::Result<SimResult>,
    tr: &Tracer,
) -> gatspi_core::Result<SimResult> {
    let span = tr.span("core.incremental");
    let before = session.plan_cache_stats();
    let r = incremental()?;
    let after = session.plan_cache_stats();
    span.count("plan_cache_hits", (after.hits - before.hits) as f64);
    span.count("plan_cache_misses", (after.misses - before.misses) as f64);
    span.count(
        "cone_plan_hits",
        (after.cone_hits - before.cone_hits) as f64,
    );
    Ok(r)
}

/// Timed samples of one invocation.
#[derive(Debug, Default)]
pub struct Samples {
    /// Seconds from reading the input files to a session ready to run.
    pub setup: Vec<f64>,
    /// Seconds of the workload's turnaround path.
    pub turnaround: Vec<f64>,
    /// Seconds per warm full run.
    pub full: Vec<f64>,
    /// Seconds per warm incremental run.
    pub incremental: Vec<f64>,
    /// Milliseconds per [`HostProbe::sample`], one before each timed step.
    pub host_probe_ms: Vec<f64>,
}

/// Words in the probe's table: 64 MiB, far past a core's private caches,
/// so its reads compete for the shared last-level cache and memory the
/// way the program's do.
const PROBE_WORDS: usize = 8 << 20;

/// Scattered reads per probe.
const PROBE_READS: usize = 1 << 20;

/// Words of the fresh buffer each probe fills and sums: 8 MiB.
const PROBE_FILL_WORDS: u64 = 1 << 20;

/// A fixed single-threaded memory job timed beside the program, so that
/// the end-to-end times can be scaled to a nominal host speed
/// (see [`crate::host_factor`]).
///
/// On a shared host the program's memory-bound phases run up to half again
/// slower for tens of seconds at a time when neighbours load the shared
/// cache and memory. The probe does the same kind of work — scattered
/// reads over a table larger than the private caches, then a fresh buffer
/// filled and summed (page faults and bandwidth, like an arena fill) — and
/// slows with it. It runs only between the program's calls, never beside
/// them, and is benchmark code, so no change to the program moves it.
pub struct HostProbe {
    table: Vec<u64>,
}

impl HostProbe {
    /// Allocates and touches the probe's table.
    pub fn new() -> Self {
        HostProbe {
            table: (0..PROBE_WORDS as u64).collect(),
        }
    }

    /// Times one probe and records it in milliseconds.
    pub fn sample(&self, samples: &mut Samples) {
        let t = Instant::now();
        let mask = self.table.len() - 1;
        let (mut j, mut sum) = (12_345usize, 0u64);
        for _ in 0..black_box(PROBE_READS) {
            j = j.wrapping_mul(1_103_515_245).wrapping_add(12_345) & mask;
            sum = sum.wrapping_add(self.table[j]);
        }
        let fresh: Vec<u64> = (0..black_box(PROBE_FILL_WORDS)).collect();
        black_box(sum.wrapping_add(fresh.iter().sum::<u64>()));
        drop(fresh);
        samples.host_probe_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
}

impl Default for HostProbe {
    fn default() -> Self {
        Self::new()
    }
}

/// Paces measurement rounds within a time budget.
pub struct Rounds {
    start: Instant,
    seconds: f64,
    current: Option<Instant>,
    longest: f64,
}

impl Rounds {
    /// A budget of `seconds` counted from `start`.
    pub fn new(start: Instant, seconds: f64) -> Self {
        Rounds {
            start,
            seconds,
            current: None,
            longest: 0.0,
        }
    }

    /// Whether to start another round: always a first one, then only while
    /// a round as long as the longest so far still ends within the budget,
    /// so an invocation never overruns it by a whole round.
    pub fn another(&mut self) -> bool {
        let now = Instant::now();
        let go = match self.current {
            None => true,
            Some(t) => {
                self.longest = self.longest.max((now - t).as_secs_f64());
                (now - self.start).as_secs_f64() + self.longest <= self.seconds
            }
        };
        if go {
            self.current = Some(now);
        }
        go
    }
}

/// `n` timed pairs of a warm full run and a warm incremental run, each
/// after a host probe, every output checked outside the timed calls.
#[allow(clippy::too_many_arguments)]
pub fn warm_pairs(
    n: usize,
    probe: &HostProbe,
    samples: &mut Samples,
    checker: &mut Checker,
    mut full: impl FnMut() -> gatspi_core::Result<SimResult>,
    full_ref: &SaifDocument,
    mut incremental: impl FnMut() -> gatspi_core::Result<SimResult>,
    incremental_ref: &SaifDocument,
) {
    for _ in 0..n {
        probe.sample(samples);
        let t = Instant::now();
        let r = full();
        let dt = t.elapsed().as_secs_f64();
        if let Some(r) = checker.ok("warm full run", r) {
            samples.full.push(dt);
            checker.saif("warm full run", &r.saif, full_ref);
        }
        let t = Instant::now();
        let r = incremental();
        let dt = t.elapsed().as_secs_f64();
        if let Some(r) = checker.ok("warm incremental run", r) {
            samples.incremental.push(dt);
            checker.saif("warm incremental run", &r.saif, incremental_ref);
        }
    }
}
