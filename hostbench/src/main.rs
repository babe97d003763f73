//! Host-time benchmark of the LUMOS simulator.
//!
//! ```text
//! cargo run --release --manifest-path hostbench/Cargo.toml -- \
//!     --workload gpt2_tabulate --seed 1 --seconds 15 --trace 0
//! ```
//!
//! One closed-loop client on one thread drives a workload's seeded op
//! list, in whole passes, through the simulator crates' public APIs.
//! With `--trace 0` it prints the end-to-end metrics (host wall-clock
//! time, tracing off, each op at its fastest repeats); with `--trace 1`
//! it alternates untraced and traced passes, probes each layer, writes
//! the spans to `.hostbench/trace-<workload>-seed<seed>.json` and prints
//! the per-layer metrics. The last stdout line is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. See README.md.

mod check;
mod rng;
mod stats;
mod trace;
mod workload;

use std::time::{Duration, Instant};

use check::{digest_mismatches, parse_pinned, Output};
use stats::{percentile, ratio};
use trace::{layer, self_times, Tracer};
use workload::{op_list, probes, run_op, setup, split_equals_cold, Inputs, Mode, Op, Workload};

/// The seed whose op outputs are pinned in `digests/`.
const DEFAULT_SEED: u64 = 1;
/// Set-up runs this many times per process. `setup_s` takes each of
/// its steps at its best repeat, the rule the op timings use. The first
/// run starts at process start; the others are spread over the timed
/// phase, so that one slow stretch of a shared host cannot move them all.
const SETUP_REPS: usize = 12;

/// `op_p90_ms` has at least this many samples, so that at least 10 lie
/// beyond it. A timed phase runs at least twice as many ops, so that
/// the samples are about the faster half of each op's repeats or less.
const MIN_P90_SAMPLES: usize = 100;

/// End-to-end metrics (`--trace 0`), with units.
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (`--trace 1`), with units.
const PER_LAYER: [(&str, &str); 35] = [
    ("tabulation.calls", "count"),
    ("tabulation.busy_ms", "ms"),
    ("tabulation.per_stream.busy_ms", "ms"),
    ("tabulation.continuous.busy_ms", "ms"),
    ("tabulation.flow.busy_ms", "ms"),
    ("tabulation.cells", "count"),
    ("tabulation.us_per_cell", "us"),
    ("tabulation.share_of_ops", "ratio"),
    ("runner.siph.us_per_call", "us"),
    ("runner.elec.us_per_call", "us"),
    ("runner.cnn.us_per_call", "us"),
    ("placement.us_per_stage", "us"),
    ("placement.share_of_runner", "ratio"),
    ("event_loop.calls", "count"),
    ("event_loop.busy_ms", "ms"),
    ("event_loop.requests", "count"),
    ("event_loop.ticks", "count"),
    ("event_loop.per_stream.us_per_request", "us"),
    ("event_loop.slo_pressure.us_per_request", "us"),
    ("event_loop.continuous.us_per_request", "us"),
    ("event_loop.flow.us_per_request", "us"),
    ("event_loop.share_of_ops", "ratio"),
    ("flow.us_per_call", "us"),
    ("dse.points", "count"),
    ("dse.evaluated", "count"),
    ("dse.hit_ratio", "ratio"),
    ("dse.us_per_evaluated_point", "us"),
    ("dse.warm.us_per_hit", "us"),
    ("dse.share_of_ops", "ratio"),
    ("lowering.calls", "count"),
    ("lowering.busy_ms", "ms"),
    ("op.self_frac", "ratio"),
    ("serve.calls", "count"),
    ("trace.overhead_frac", "ratio"),
    ("trace.spans", "count"),
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    write_digests: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: Workload::Gpt2Tabulate,
        seed: DEFAULT_SEED,
        seconds: 15.0,
        trace: false,
        write_digests: false,
    };
    let mut workload = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--write-digests" {
            args.write_digests = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(&value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => args.seed = value.parse().map_err(bad)?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .map_err(|_| format!("bad value {value:?} for {flag}"))?
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    args.workload = workload
        .ok_or("--workload is required (gpt2_tabulate | gpt2_load_curve | cnn_dse_explore)")?;
    Ok(args)
}

/// What one timed phase did.
#[derive(Default)]
struct Phase {
    passes: usize,
    attempted: usize,
    failed: usize,
    /// Host time of every op, in run order.
    op_times: Vec<Duration>,
    /// The first pass's result of each op (`None` if it failed).
    first: Vec<Option<Output>>,
    errors: Vec<String>,
}

impl Phase {
    fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.errors.len() < 5 {
            self.errors.push(msg);
        }
    }

    /// Host time of one pass at each op's best repeat.
    fn best_busy(&self) -> Duration {
        best_repeats(&self.op_times, self.first.len()).iter().sum()
    }

    /// Ops per host second over `times`.
    fn rate(times: &[Duration]) -> f64 {
        ratio(
            times.len() as f64,
            times.iter().sum::<Duration>().as_secs_f64(),
        )
    }
}

/// The `m` fastest of each item's repeats, item by item, where `times`
/// holds whole rounds of `n` items each.
fn fastest_repeats(times: &[Duration], n: usize, m: usize) -> Vec<Duration> {
    (0..n)
        .flat_map(|i| {
            let mut repeats: Vec<Duration> = times.iter().skip(i).step_by(n).copied().collect();
            repeats.sort();
            repeats.truncate(m);
            repeats
        })
        .collect()
}

/// The fastest of each item's repeats, in item order.
fn best_repeats(times: &[Duration], n: usize) -> Vec<Duration> {
    fastest_repeats(times, n, 1)
}

/// One set-up run as a round for `best_repeats`: the time outside its
/// steps (from process start, for the first run), then each step.
fn setup_round(total: Duration, steps: Vec<Duration>) -> Vec<Duration> {
    let rest = total.saturating_sub(steps.iter().sum());
    std::iter::once(rest).chain(steps).collect()
}

/// Runs one pass of `ops`, appending each op's time and check result
/// to `ph`. Every result must equal `reference[i]` when given (the
/// traced passes), else the first pass's result.
fn run_pass(
    inputs: &Inputs,
    ops: &[Op],
    t: &mut Tracer,
    ph: &mut Phase,
    reference: Option<&[Option<Output>]>,
) {
    for (i, op) in ops.iter().enumerate() {
        t.set_op(Some(ph.attempted as u64));
        let t0 = Instant::now();
        let out = t.span("op", "", |t| run_op(inputs, op, t));
        ph.op_times.push(t0.elapsed());
        ph.attempted += 1;
        let out = out.and_then(|o| o.check().map(|()| o));
        let expected = match reference {
            Some(r) => r[i].as_ref(),
            None => ph.first.get(i).and_then(Option::as_ref),
        };
        let error = match &out {
            Err(e) => Some(e.clone()),
            Ok(o) if expected.is_some_and(|x| !x.bit_eq(o)) => {
                Some("result differs from its first run".into())
            }
            Ok(_) => None,
        };
        if let Some(e) = error {
            ph.fail(format!("op {i} ({}): {e}", op.label()));
        }
        if ph.passes == 0 {
            ph.first.push(out.ok());
        }
    }
    ph.passes += 1;
    t.set_op(None);
}

fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn json_line(
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: &[(&str, &str, f64)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, u, v)| format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}"))
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// Percentile `q` of `times`, in ms.
fn percentile_ms(times: &[Duration], q: f64) -> f64 {
    let op_ms: Vec<f64> = times.iter().map(|&d| ms(d)).collect();
    percentile(&op_ms, q)
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Per-layer metrics from the traced run's spans and counters.
fn per_layer(
    t: &Tracer,
    untraced: &Phase,
    traced: &Phase,
) -> Vec<(&'static str, &'static str, f64)> {
    let spans = t.spans();
    let selfs = self_times(spans);
    let all = |name: &str, tag: Option<&str>| layer(spans, &selfs, name, tag, false);
    let timed = |name: &str| layer(spans, &selfs, name, None, true);
    let per_call = |name: &str, tag: Option<&str>| {
        let l = all(name, tag);
        ratio(us(l.busy), l.calls as f64)
    };
    let ops = timed("op");
    let share_of_ops = |name: &str| ratio(timed(name).busy.as_secs_f64(), ops.busy.as_secs_f64());
    let tab = all("tabulation", None);
    let ev = all("event_loop", None);
    let dse = all("dse", None);
    let lowering = all("lowering", None);
    let cells = t.counter("tabulation.cells");
    let runner_us = ratio(
        per_call("probe.runner", Some("siph")) + per_call("probe.runner", Some("elec")),
        2.0,
    );
    let place_us = per_call("probe.place", None);
    let mode_us = |m: Mode| {
        ratio(
            us(all("event_loop", Some(m.tag())).busy),
            t.counter(&format!("event_loop.{}.requests", m.tag())),
        )
    };
    let values: Vec<f64> = vec![
        tab.calls as f64,
        ms(tab.busy),
        ms(all("tabulation", Some(Mode::PerStream.tag())).busy),
        ms(all("tabulation", Some(Mode::Continuous.tag())).busy),
        ms(all("tabulation", Some(Mode::Flow.tag())).busy),
        cells,
        ratio(us(tab.busy), cells),
        share_of_ops("tabulation"),
        per_call("probe.runner", Some("siph")),
        per_call("probe.runner", Some("elec")),
        per_call("probe.runner", Some("cnn")),
        place_us,
        ratio(place_us, runner_us),
        ev.calls as f64,
        ms(ev.busy),
        t.counter("event_loop.requests"),
        t.counter("event_loop.ticks"),
        mode_us(Mode::PerStream),
        mode_us(Mode::SloPressure),
        mode_us(Mode::Continuous),
        mode_us(Mode::Flow),
        share_of_ops("event_loop"),
        per_call("probe.flow", None),
        t.counter("dse.points"),
        t.counter("dse.evaluated"),
        ratio(t.counter("dse.hits"), t.counter("dse.points")),
        ratio(us(dse.busy), t.counter("dse.evaluated")),
        ratio(
            us(all("probe.dse_warm", None).busy),
            t.counter("dse.warm.hits"),
        ),
        share_of_ops("dse"),
        lowering.calls as f64,
        ms(lowering.busy),
        ratio(ops.self_time.as_secs_f64(), ops.busy.as_secs_f64()),
        (tab.calls + ev.calls) as f64,
        ratio(
            traced.best_busy().as_secs_f64(),
            untraced.best_busy().as_secs_f64(),
        ) - 1.0,
        spans.len() as f64,
    ];
    PER_LAYER
        .iter()
        .zip(values)
        .map(|(&(n, u), v)| (n, u, v))
        .collect()
}

fn run(args: &Args, process_start: Instant) -> Result<String, String> {
    let w = args.workload;
    // Only the first set-up is traced, so layer counts cover one set-up
    // plus the traced timed phase.
    let mut tracer = if args.trace {
        Tracer::on()
    } else {
        Tracer::off()
    };
    let mut steps = Vec::new();
    let mut inputs = setup(w, &mut tracer, &mut steps)?;
    let first_setup = process_start.elapsed();
    let mut setup_times = vec![first_setup.as_secs_f64()];
    let mut setup_steps = setup_round(first_setup, steps);
    let n_steps = setup_steps.len();
    let ops = op_list(w, args.seed);

    if args.write_digests {
        return write_digests(w, &inputs);
    }

    let mut off = Tracer::off();
    let mut untraced = Phase::default();
    let mut traced = Phase::default();
    // Ops run for `--seconds`, not counting set-up reruns.
    let start = Instant::now();
    let ops_elapsed =
        |setup_times: &[f64]| start.elapsed().as_secs_f64() - setup_times[1..].iter().sum::<f64>();
    let timing = |ph: &Phase, setup_times: &[f64]| {
        ph.passes < w.min_passes()
            || ph.op_times.len() < 2 * MIN_P90_SAMPLES
            || ops_elapsed(setup_times) < args.seconds
    };
    if args.trace {
        // Untraced and traced passes alternate, so a slow stretch of a
        // shared host lands on both sides of `trace.overhead_frac`.
        // Every traced gpt2_tabulate op runs split and must equal its
        // cold untraced result.
        while timing(&traced, &setup_times) {
            run_pass(&inputs, &ops, &mut off, &mut untraced, None);
            run_pass(
                &inputs,
                &ops,
                &mut tracer,
                &mut traced,
                Some(&untraced.first),
            );
        }
    } else {
        // Set-up reruns are spread over the phase: at most one per pass,
        // once its slot of `--seconds` has begun.
        let slot = args.seconds / SETUP_REPS as f64;
        while timing(&untraced, &setup_times) || setup_times.len() < SETUP_REPS {
            if timing(&untraced, &setup_times) {
                run_pass(&inputs, &ops, &mut off, &mut untraced, None);
            }
            if setup_times.len() < SETUP_REPS
                && setup_times.len() as f64 * slot <= ops_elapsed(&setup_times)
            {
                // The rerun's inputs replace the first ones, which are
                // freed before it starts: `peak_rss_mb` sees one set of
                // inputs, and the passes after it check that set-up
                // rebuilds them bit for bit.
                drop(inputs);
                let mut steps = Vec::new();
                let t0 = Instant::now();
                inputs = setup(w, &mut Tracer::off(), &mut steps)?;
                setup_times.push(t0.elapsed().as_secs_f64());
                setup_steps.extend(setup_round(t0.elapsed(), steps));
            }
        }
    }
    let rss = peak_rss_mb();
    let mut correct = true;

    let digests: Vec<u64> = untraced
        .first
        .iter()
        .map(|o| o.as_ref().map_or(0, Output::digest))
        .collect();
    if args.seed == DEFAULT_SEED {
        for i in digest_mismatches(&parse_pinned(w.pinned_digests()), &digests) {
            correct = false;
            untraced.fail(format!(
                "op {i} ({}): digest differs from the pinned one",
                ops[i].label()
            ));
        }
    }

    if args.trace {
        probes(w, &inputs, &mut tracer)?;
        std::fs::create_dir_all(".hostbench").map_err(|e| e.to_string())?;
        let path = format!(".hostbench/trace-{}-seed{}.json", w.name(), args.seed);
        std::fs::write(&path, tracer.to_json()).map_err(|e| format!("{path}: {e}"))?;
    } else if let (Some(op), Some(Some(cold))) = (ops.first(), untraced.first.first()) {
        if !split_equals_cold(&inputs, op, cold)? {
            untraced.fail(format!(
                "op 0 ({}): build_profiles + simulate_with_profiles differs from simulate",
                op.label()
            ));
        }
    }

    let attempted = untraced.attempted + traced.attempted;
    let failed = untraced.failed + traced.failed;
    for e in untraced.errors.iter().chain(&traced.errors) {
        eprintln!("hostbench: failed: {e}");
    }
    correct &= failed == 0;
    let all_rate = Phase::rate(&untraced.op_times);
    let all_p50 = percentile_ms(&untraced.op_times, 0.5);
    let all_p90 = percentile_ms(&untraced.op_times, 0.9);
    eprintln!(
        "hostbench: {} seed {}: {} passes of {} ops, {attempted} ops, {failed} failed; \
         over every run of every op: {all_rate:.3} ops/s, p50 {all_p50:.3} ms, p90 {all_p90:.3} ms",
        w.name(),
        args.seed,
        untraced.passes,
        ops.len(),
    );
    if !args.trace {
        let runs: Vec<String> = setup_times.iter().map(|s| format!("{s:.3}")).collect();
        eprintln!("hostbench: set-up runs (s): {}", runs.join(" "));
    }

    let metrics = if args.trace {
        per_layer(&tracer, &untraced, &traced)
    } else {
        // Rate and p50 take each op at its best repeat. p90 takes each
        // op's fewest fastest repeats that make at least 100 samples.
        let best = best_repeats(&untraced.op_times, ops.len());
        let per_op = MIN_P90_SAMPLES.div_ceil(ops.len());
        let setup_s: Duration = best_repeats(&setup_steps, n_steps).iter().sum();
        let values = [
            setup_s.as_secs_f64(),
            Phase::rate(&best),
            percentile_ms(&best, 0.5),
            percentile_ms(&fastest_repeats(&untraced.op_times, ops.len(), per_op), 0.9),
            rss,
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(n, u), v)| (n, u, v))
            .collect()
    };
    // JSON has no NaN or infinity; one would be a bug in this harness.
    if let Some((name, _, v)) = metrics.iter().find(|(_, _, v)| !v.is_finite()) {
        return Err(format!("metric {name} is {v}"));
    }
    Ok(json_line(correct, attempted, failed, &metrics))
}

/// Re-pins the default seed's digests (after a change that moves
/// simulated results on purpose).
fn write_digests(w: Workload, inputs: &Inputs) -> Result<String, String> {
    let mut off = Tracer::off();
    let mut text = format!(
        "# {}: FNV-1a digests of each op's simulated output, seed {DEFAULT_SEED}\n",
        w.name()
    );
    for (i, op) in op_list(w, DEFAULT_SEED).iter().enumerate() {
        let out = run_op(inputs, op, &mut off)?;
        out.check()?;
        text.push_str(&format!("{i} {:016x} {}\n", out.digest(), op.label()));
    }
    let path = format!("{}/digests/{}.txt", env!("CARGO_MANIFEST_DIR"), w.name());
    std::fs::write(&path, text).map_err(|e| format!("{path}: {e}"))?;
    Ok(format!("wrote {path}"))
}

fn main() {
    let process_start = Instant::now();
    let result = parse_args().and_then(|args| run(&args, process_start));
    match result {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("hostbench: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric tables here and in BENCHMARK.json name the same
    /// metrics with the same units.
    #[test]
    fn metric_tables_match_benchmark_json() {
        let json = include_str!("../../BENCHMARK.json");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        assert_eq!(
            json.matches("\"unit\"").count(),
            END_TO_END.len() + PER_LAYER.len()
        );
    }

    #[test]
    fn fastest_repeats_keep_each_items_fastest_rounds() {
        let d = Duration::from_millis;
        let times = [d(5), d(9), d(3), d(4), d(7), d(8)];
        assert_eq!(best_repeats(&times, 2), [d(3), d(4)]);
        assert_eq!(best_repeats(&times, 3), [d(4), d(7), d(3)]);
        assert_eq!(fastest_repeats(&times, 2, 2), [d(3), d(5), d(4), d(8)]);
        assert_eq!(
            fastest_repeats(&times, 3, 5),
            [d(4), d(5), d(7), d(9), d(3), d(8)]
        );
        let round = setup_round(d(10), vec![d(6), d(3)]);
        assert_eq!(round, [d(1), d(6), d(3)]);
    }

    #[test]
    fn json_line_has_the_four_keys() {
        let line = json_line(true, 3, 0, &[("a", "ms", 1.5), ("b", "count", 0.0)]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"a\": {\"value\": 1.5, \"unit\": \"ms\"}, \"b\": {\"value\": 0, \"unit\": \"count\"}}}"
        );
    }
}
