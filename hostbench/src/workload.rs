//! The three workloads: their seeded op lists, set-up, one op, and the
//! layer probes of the traced run. Everything reaches the simulator
//! through the crates' public APIs.

use std::time::{Duration, Instant};

use lumos_core::contention::ContentionModel;
use lumos_core::dse::{self, Exploration};
use lumos_core::flow::{max_min_shares, FlowRoute, FlowTopology};
use lumos_core::{mapper, Platform, PlatformConfig, Runner};
use lumos_dnn::workload::{extract_workloads, LayerWorkload, Precision};
use lumos_dnn::{zoo, Model};
use lumos_dse::{DseAxes, MemoCache};
use lumos_serve::{
    build_profiles, simulate, simulate_with_profiles, BatchPolicy, ContentionKind, ServeAxes,
    ServeConfig, ServePolicy, ServeReport, ServedModel, ServiceProfiles, SharePolicy,
};
use lumos_xformer::TransformerConfig;

use crate::check::Output;
use crate::rng::Rng;
use crate::trace::Tracer;

pub const PLATFORMS: [Platform; 2] = [Platform::Siph2p5D, Platform::Elec2p5D];

/// GPT-2-small generator shape shared by both serving workloads.
const GEN_PROMPT: u32 = 32;
const GEN_TOKENS: u32 = 12;
const GEN_SLO_MS: f64 = 100.0;
const RESNET_SLO_MS: f64 = 10.0;

/// `gpt2_tabulate`: a short horizon at a rate that still admits a few
/// requests, so nearly all of an op is the cold profile build.
const TAB_RATE_RPS: f64 = 300.0;
const TAB_HORIZON_S: f64 = 0.03;
/// Residency caps of a pass. Ops stay under ~0.7 s, so a run repeats
/// each op often enough for its best repeat to be steady: on a shared
/// host the best of 5 repeats of K = 10 and 12 FlowLevel ops (0.4–1.3 s
/// each) still spread over 25% from run to run.
const TAB_KS: [usize; 3] = [4, 6, 8];
const TAB_MODES: [Mode; 3] = [Mode::PerStream, Mode::Continuous, Mode::Flow];

/// `gpt2_load_curve`: residency cap and horizon of every op.
const CURVE_K: usize = 8;
const CURVE_HORIZON_S: f64 = 3.0;
const CURVE_MODES: [Mode; 4] = [
    Mode::PerStream,
    Mode::SloPressure,
    Mode::Continuous,
    Mode::Flow,
];

/// `cnn_dse_explore`: refinement rounds per exploration.
const DSE_ROUNDS: usize = 3;

/// Base (generator, ResNet-50) arrival rates of the load curve, set
/// near each platform's own saturation point so that
/// `ServeAxes::EXAMPLE_LOADS` spans under- and over-load on both: at
/// 3 s, SiPh sustains load 1 and saturates at 2; Elec sustains most of
/// load 1 and saturates at 3.
fn curve_rates(platform: Platform) -> (f64, f64) {
    match platform {
        Platform::Siph2p5D => (40.0, 400.0),
        _ => (3.0, 30.0),
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Gpt2Tabulate,
    Gpt2LoadCurve,
    CnnDseExplore,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::Gpt2Tabulate,
        Workload::Gpt2LoadCurve,
        Workload::CnnDseExplore,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Gpt2Tabulate => "gpt2_tabulate",
            Workload::Gpt2LoadCurve => "gpt2_load_curve",
            Workload::CnnDseExplore => "cnn_dse_explore",
        }
    }

    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Fewest passes of the op list a timed phase runs: enough repeats
    /// of every op for its best time to be steady.
    pub fn min_passes(self) -> usize {
        match self {
            Workload::Gpt2Tabulate => 20,
            _ => 2,
        }
    }

    /// The pinned digests of the default seed's op list.
    pub fn pinned_digests(self) -> &'static str {
        match self {
            Workload::Gpt2Tabulate => include_str!("../digests/gpt2_tabulate.txt"),
            Workload::Gpt2LoadCurve => include_str!("../digests/gpt2_load_curve.txt"),
            Workload::CnnDseExplore => include_str!("../digests/cnn_dse_explore.txt"),
        }
    }
}

/// How resident generator streams share the platform.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    PerStream,
    SloPressure,
    Continuous,
    Flow,
}

impl Mode {
    pub fn tag(self) -> &'static str {
        match self {
            Mode::PerStream => "per_stream",
            Mode::SloPressure => "slo_pressure",
            Mode::Continuous => "continuous",
            Mode::Flow => "flow",
        }
    }

    fn apply(self, cfg: ServeConfig) -> ServeConfig {
        match self {
            Mode::PerStream => cfg,
            Mode::SloPressure => cfg.with_sharing(SharePolicy::SloPressure),
            Mode::Continuous => cfg.with_batching(BatchPolicy::continuous(4)),
            Mode::Flow => cfg.with_contention(ContentionKind::FlowLevel),
        }
    }

    /// The service profiles the mode runs on: sharing weights do not
    /// enter the tables, so SLO pressure reuses the per-stream ones.
    fn tables(self) -> Mode {
        match self {
            Mode::SloPressure => Mode::PerStream,
            m => m,
        }
    }
}

/// One op of a workload's list.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// Lower the generator, build its `ServeConfig` and run one cold
    /// `simulate`.
    Tabulate {
        platform: Platform,
        mode: Mode,
        k: usize,
        seed: u64,
    },
    /// One `simulate_with_profiles` on the profiles built in set-up.
    Serve {
        platform: Platform,
        mode: Mode,
        load: f64,
        policy: ServePolicy,
        seed: u64,
    },
    /// One `dse::explore` of a Table-2 CNN on a fresh memo cache.
    Explore { model: usize },
}

impl Op {
    pub fn label(&self) -> String {
        match self {
            Op::Tabulate {
                platform,
                mode,
                k,
                seed,
            } => format!("{platform:?} {} K={k} seed={seed}", mode.tag()),
            Op::Serve {
                platform,
                mode,
                load,
                policy,
                seed,
            } => {
                format!(
                    "{platform:?} {} load={load} {policy:?} seed={seed}",
                    mode.tag()
                )
            }
            Op::Explore { model } => format!("explore table2[{model}]"),
        }
    }
}

/// The op list of one pass. Each pass covers every op class exactly
/// once (the full factorial of the workload's axes), so every seed does
/// the same work; the seed draws the order and each serving op's
/// arrival seed.
pub fn op_list(w: Workload, seed: u64) -> Vec<Op> {
    let mut rng = Rng::new(seed);
    let mut ops = Vec::new();
    match w {
        Workload::Gpt2Tabulate => {
            for platform in PLATFORMS {
                for mode in TAB_MODES {
                    for k in TAB_KS {
                        ops.push(Op::Tabulate {
                            platform,
                            mode,
                            k,
                            seed: 0,
                        });
                    }
                }
            }
        }
        Workload::Gpt2LoadCurve => {
            for platform in PLATFORMS {
                for mode in CURVE_MODES {
                    for &load in ServeAxes::EXAMPLE_LOADS {
                        for policy in ServePolicy::all() {
                            ops.push(Op::Serve {
                                platform,
                                mode,
                                load,
                                policy,
                                seed: 0,
                            });
                        }
                    }
                }
            }
        }
        Workload::CnnDseExplore => {
            ops.extend((0..zoo::table2_models().len()).map(|model| Op::Explore { model }))
        }
    }
    rng.shuffle(&mut ops);
    for op in &mut ops {
        if let Op::Tabulate { seed, .. } | Op::Serve { seed, .. } = op {
            *seed = rng.next_u64();
        }
    }
    ops
}

/// Fixed, seed-independent ops run (untimed) at the end of set-up
/// wherever building the inputs alone is too short to time steadily.
fn warmup_ops(w: Workload) -> Vec<Op> {
    match w {
        Workload::Gpt2Tabulate => vec![
            Op::Tabulate {
                platform: Platform::Siph2p5D,
                mode: Mode::PerStream,
                k: 8,
                seed: 1,
            },
            Op::Tabulate {
                platform: Platform::Siph2p5D,
                mode: Mode::Continuous,
                k: 8,
                seed: 2,
            },
            Op::Tabulate {
                platform: Platform::Elec2p5D,
                mode: Mode::Flow,
                k: 6,
                seed: 3,
            },
            Op::Tabulate {
                platform: Platform::Elec2p5D,
                mode: Mode::PerStream,
                k: 8,
                seed: 4,
            },
        ],
        Workload::Gpt2LoadCurve => Vec::new(),
        Workload::CnnDseExplore => {
            let models = 0..zoo::table2_models().len();
            std::iter::repeat_n(models, 8)
                .flatten()
                .map(|model| Op::Explore { model })
                .collect()
        }
    }
}

/// Everything set-up builds and the ops read.
pub struct Inputs {
    cfg: PlatformConfig,
    gpt2: TransformerConfig,
    /// `gpt2_load_curve`: each platform's served mix.
    mixes: Vec<(Platform, Vec<ServedModel>)>,
    /// `gpt2_load_curve`: profiles per platform and table mode.
    profiles: Vec<(Platform, Mode, ServiceProfiles)>,
    /// `cnn_dse_explore`: the Table-2 models.
    cnns: Vec<Model>,
}

impl Inputs {
    fn mix(&self, platform: Platform) -> &[ServedModel] {
        &self
            .mixes
            .iter()
            .find(|(p, _)| *p == platform)
            .expect("mix built in set-up")
            .1
    }

    fn profiles(&self, platform: Platform, mode: Mode) -> &ServiceProfiles {
        let mode = mode.tables();
        &self
            .profiles
            .iter()
            .find(|(p, m, _)| *p == platform && *m == mode)
            .expect("profiles built in set-up")
            .2
    }
}

fn generator(gpt2: &TransformerConfig, rate_rps: f64) -> ServedModel {
    ServedModel::generator(
        gpt2,
        GEN_PROMPT,
        GEN_TOKENS,
        1,
        Precision::int8(),
        rate_rps,
        GEN_SLO_MS,
    )
}

fn curve_config(inputs: &Inputs, platform: Platform, mode: Mode) -> ServeConfig {
    mode.apply(ServeConfig::new(
        inputs.cfg.clone(),
        platform,
        inputs.mix(platform).to_vec(),
    ))
    .with_max_concurrency(CURVE_K)
    .with_duration_s(CURVE_HORIZON_S)
}

/// Table cells of built profiles: uniform columns, batched decode
/// planes and flow planes.
pub fn cells(p: &ServiceProfiles) -> usize {
    p.models
        .iter()
        .map(|m| {
            m.stages.iter().map(Vec::len).sum::<usize>()
                + m.batched.iter().flatten().map(Vec::len).sum::<usize>()
                + m.flow_stages.iter().flatten().map(Vec::len).sum::<usize>()
        })
        .sum()
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Runs `f`, appending its host time to `steps`.
fn step<T>(steps: &mut Vec<Duration>, f: impl FnOnce() -> T) -> T {
    let t0 = Instant::now();
    let out = f();
    steps.push(t0.elapsed());
    out
}

/// Lowers the workload's models (and, for the load curve, tabulates its
/// service profiles), then runs the fixed warm-up ops. Appends the host
/// time of each step to `steps`: the lowering, each profile build and
/// each warm-up op, always in the same order.
pub fn setup(w: Workload, t: &mut Tracer, steps: &mut Vec<Duration>) -> Result<Inputs, String> {
    let mut inputs = step(steps, || lower(w, t));
    if w == Workload::Gpt2LoadCurve {
        for platform in PLATFORMS {
            for mode in TAB_MODES {
                let cfg = curve_config(&inputs, platform, mode);
                let profiles = step(steps, || {
                    t.span("tabulation", mode.tag(), |_| build_profiles(&cfg))
                })
                .map_err(err)?;
                t.count("tabulation.cells", cells(&profiles) as f64);
                inputs.profiles.push((platform, mode, profiles));
            }
        }
    }
    for op in warmup_ops(w) {
        step(steps, || run_op(&inputs, &op, t))?.check()?;
    }
    Ok(inputs)
}

/// The set-up's lowering: the workload's models and served mixes.
fn lower(w: Workload, t: &mut Tracer) -> Inputs {
    let cfg = PlatformConfig::paper_table1();
    let gpt2 = t.span("lowering", "zoo", |_| lumos_xformer::zoo::gpt2_small());
    let mut inputs = Inputs {
        cfg,
        gpt2,
        mixes: Vec::new(),
        profiles: Vec::new(),
        cnns: Vec::new(),
    };
    match w {
        Workload::Gpt2Tabulate => {}
        Workload::Gpt2LoadCurve => {
            let resnet = t.span("lowering", "zoo", |_| zoo::resnet50());
            for platform in PLATFORMS {
                let (gen_rps, cnn_rps) = curve_rates(platform);
                let mix = t.span("lowering", "served", |_| {
                    vec![
                        generator(&inputs.gpt2, gen_rps),
                        ServedModel::cnn(&resnet, Precision::int8(), cnn_rps, RESNET_SLO_MS),
                    ]
                });
                inputs.mixes.push((platform, mix));
            }
        }
        Workload::CnnDseExplore => {
            inputs.cnns = t.span("lowering", "zoo", |_| zoo::table2_models())
        }
    }
    inputs
}

fn count_report(t: &mut Tracer, mode: Mode, r: &ServeReport) {
    t.count("event_loop.requests", r.total_arrived as f64);
    t.count(
        format!("event_loop.{}.requests", mode.tag()),
        r.total_arrived as f64,
    );
    t.count("event_loop.ticks", r.batch.ticks as f64);
}

/// Runs one op. With tracing on, a `gpt2_tabulate` op runs as
/// `build_profiles` + `simulate_with_profiles` so the two layers get
/// their own spans; the benchmark checks that this equals the cold
/// `simulate` bit for bit.
pub fn run_op(inputs: &Inputs, op: &Op, t: &mut Tracer) -> Result<Output, String> {
    match *op {
        Op::Tabulate {
            platform,
            mode,
            k,
            seed,
        } => {
            let model = t.span("lowering", "served", |_| {
                generator(&inputs.gpt2, TAB_RATE_RPS)
            });
            let cfg = mode
                .apply(ServeConfig::new(inputs.cfg.clone(), platform, vec![model]))
                .with_max_concurrency(k)
                .with_duration_s(TAB_HORIZON_S)
                .with_seed(seed);
            let report = if t.is_on() {
                let profiles = t
                    .span("tabulation", mode.tag(), |_| build_profiles(&cfg))
                    .map_err(err)?;
                t.count("tabulation.cells", cells(&profiles) as f64);
                t.span("event_loop", mode.tag(), |_| {
                    simulate_with_profiles(&cfg, &profiles)
                })
            } else {
                simulate(&cfg)
            }
            .map_err(err)?;
            count_report(t, mode, &report);
            Ok(Output::Serve(Box::new(report)))
        }
        Op::Serve {
            platform,
            mode,
            load,
            policy,
            seed,
        } => {
            let cfg = curve_config(inputs, platform, mode)
                .with_load_scale(load)
                .with_policy(policy)
                .with_seed(seed);
            let profiles = inputs.profiles(platform, mode);
            let report = t
                .span("event_loop", mode.tag(), |_| {
                    simulate_with_profiles(&cfg, profiles)
                })
                .map_err(err)?;
            count_report(t, mode, &report);
            Ok(Output::Serve(Box::new(report)))
        }
        Op::Explore { model } => {
            let e = t.span("dse", "", |_| {
                explore(inputs, model, &mut MemoCache::in_memory())
            });
            for r in &e.rounds {
                t.count("dse.points", r.points as f64);
                t.count("dse.hits", r.hits as f64);
                t.count("dse.evaluated", r.evaluated as f64);
            }
            Ok(Output::Explore(e))
        }
    }
}

fn explore(inputs: &Inputs, model: usize, cache: &mut MemoCache) -> Exploration {
    dse::explore(
        &inputs.cfg,
        &DseAxes::paper_conclusion(),
        &inputs.cnns[model],
        DSE_ROUNDS,
        cache,
        1,
    )
}

/// `gpt2_tabulate` cross-check: the cold `simulate` of `op` must equal
/// `build_profiles` + `simulate_with_profiles` on the same config.
pub fn split_equals_cold(inputs: &Inputs, op: &Op, cold: &Output) -> Result<bool, String> {
    Ok(match op {
        Op::Tabulate { .. } => run_op(inputs, op, &mut Tracer::on())?.bit_eq(cold),
        _ => true,
    })
}

/// Flow routes for `k = 1..=`this many residents in the flow probe.
fn flow_depth(w: Workload) -> usize {
    match w {
        Workload::Gpt2Tabulate => TAB_KS[TAB_KS.len() - 1],
        _ => CURVE_K,
    }
}

/// Repeats per flow-probe call: one water-fill takes microseconds.
const FLOW_REPS: usize = 20;

/// Layer probes of the traced run, on the workload's own inputs:
/// runner calls per platform, placement per stage, the Table-2 CNN
/// runner, max-min water-filling, and a warm DSE re-sweep.
pub fn probes(w: Workload, inputs: &Inputs, t: &mut Tracer) -> Result<(), String> {
    t.set_op(None);
    let cfg = &inputs.cfg;
    let runner = Runner::new(cfg.clone());
    // The stages of the workload's models, grouped per model.
    let models: Vec<Vec<Vec<LayerWorkload>>> = match w {
        Workload::CnnDseExplore => inputs
            .cnns
            .iter()
            .map(|m| vec![extract_workloads(m, cfg.precision)])
            .collect(),
        Workload::Gpt2Tabulate => vec![generator(&inputs.gpt2, TAB_RATE_RPS)
            .stages()
            .map(<[_]>::to_vec)
            .collect()],
        Workload::Gpt2LoadCurve => inputs
            .mix(PLATFORMS[0])
            .iter()
            .map(|m| m.stages().map(<[_]>::to_vec).collect())
            .collect(),
    };
    let ks: Vec<usize> = match w {
        Workload::Gpt2Tabulate => std::iter::once(1).chain(TAB_KS).collect(),
        Workload::Gpt2LoadCurve => vec![1, CURVE_K],
        Workload::CnnDseExplore => vec![1],
    };
    for platform in PLATFORMS {
        let tag = if platform == Platform::Siph2p5D {
            "siph"
        } else {
            "elec"
        };
        for stage in models.iter().flatten() {
            for &k in &ks {
                let contention = ContentionModel::of_resident_streams(k);
                t.span("probe.runner", tag, |_| {
                    runner.run_workloads_scaled(&platform, "probe", stage, &contention)
                })
                .map_err(err)?;
            }
        }
    }
    let mut chiplets: Vec<Vec<usize>> = Vec::new();
    for stages in &models {
        let mut used = Vec::new();
        for stage in stages {
            let placed = t.span("probe.place", "", |_| {
                stage
                    .iter()
                    .map(|wl| mapper::place(cfg, wl))
                    .collect::<Result<Vec<_>, _>>()
            });
            used.extend(placed.map_err(err)?.into_iter().flat_map(|p| p.chiplets));
        }
        used.sort_unstable();
        used.dedup();
        chiplets.push(used);
    }
    for platform in PLATFORMS {
        for m in zoo::table2_models() {
            t.span("probe.runner", "cnn", |_| runner.run(&platform, &m))
                .map_err(err)?;
        }
        let topo = FlowTopology::for_platform(cfg, platform).map_err(err)?;
        let routes: Vec<FlowRoute> = chiplets
            .iter()
            .map(|c| topo.route_for_chiplets(c))
            .collect();
        for k in 1..=flow_depth(w) {
            let flows: Vec<FlowRoute> = (0..k).map(|i| routes[i % routes.len()].clone()).collect();
            for _ in 0..FLOW_REPS {
                t.span("probe.flow", "", |_| max_min_shares(&topo, &flows))
                    .map_err(err)?;
            }
        }
    }
    if w == Workload::CnnDseExplore {
        for model in 0..inputs.cnns.len() {
            let mut cache = MemoCache::in_memory();
            let cold = explore(inputs, model, &mut cache);
            let warm = t.span("probe.dse_warm", "", |_| explore(inputs, model, &mut cache));
            t.count(
                "dse.warm.hits",
                warm.rounds.iter().map(|r| r.hits as f64).sum(),
            );
            if !Output::Explore(warm).bit_eq(&Output::Explore(cold)) {
                return Err(format!(
                    "warm re-sweep of table2[{model}] differs from the cold one"
                ));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_the_same_op_list() {
        for w in Workload::ALL {
            assert_eq!(op_list(w, 7), op_list(w, 7));
        }
        assert_ne!(
            op_list(Workload::Gpt2LoadCurve, 7),
            op_list(Workload::Gpt2LoadCurve, 8)
        );
        assert_ne!(
            op_list(Workload::Gpt2Tabulate, 7),
            op_list(Workload::Gpt2Tabulate, 8)
        );
        assert_ne!(
            op_list(Workload::CnnDseExplore, 7),
            op_list(Workload::CnnDseExplore, 8)
        );
    }

    #[test]
    fn every_seed_covers_the_full_factorial_once() {
        let key = |op: &Op| match op {
            Op::Tabulate {
                platform, mode, k, ..
            } => format!("{platform:?}{mode:?}{k}"),
            Op::Serve {
                platform,
                mode,
                load,
                policy,
                ..
            } => format!("{platform:?}{mode:?}{load}{policy:?}"),
            Op::Explore { model } => model.to_string(),
        };
        for w in Workload::ALL {
            let mut a: Vec<String> = op_list(w, 1).iter().map(key).collect();
            let mut b: Vec<String> = op_list(w, 99).iter().map(key).collect();
            a.sort();
            b.sort();
            assert_eq!(a, b);
            let n = a.len();
            a.dedup();
            assert_eq!(a.len(), n, "{} repeats an op class", w.name());
        }
        assert_eq!(op_list(Workload::Gpt2Tabulate, 1).len(), 18);
        assert_eq!(op_list(Workload::Gpt2LoadCurve, 1).len(), 160);
        assert_eq!(op_list(Workload::CnnDseExplore, 1).len(), 5);
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        assert_eq!(Workload::from_name("nope"), None);
    }
}
