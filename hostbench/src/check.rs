//! Output checks: what every op's simulated result must satisfy, and
//! the digests that pin the results of the default seed.

use lumos_core::dse::Exploration;
use lumos_serve::{Percentiles, ServeReport};

/// One op's simulated result.
#[derive(Debug, Clone)]
pub enum Output {
    Serve(Box<ServeReport>),
    Explore(Exploration),
}

impl Output {
    /// The canonical text of the result: `ServeReport::to_json`, or
    /// every explored point's `DsePoint::to_json` followed by the
    /// front's.
    pub fn canonical(&self) -> String {
        match self {
            Output::Serve(r) => r.to_json(),
            Output::Explore(e) => {
                let mut s = String::new();
                for p in &e.points {
                    s.push_str(&p.to_json());
                    s.push('\n');
                }
                s.push_str("front\n");
                for p in &e.front {
                    s.push_str(&p.to_json());
                    s.push('\n');
                }
                s
            }
        }
    }

    pub fn digest(&self) -> u64 {
        fnv1a(self.canonical().as_bytes())
    }

    /// Bitwise equality of two results (floats compared by bits).
    pub fn bit_eq(&self, other: &Output) -> bool {
        match (self, other) {
            (Output::Serve(a), Output::Serve(b)) => a == b && a.to_json() == b.to_json(),
            (Output::Explore(a), Output::Explore(b)) => {
                let same = |x: &[lumos_dse::DsePoint], y: &[lumos_dse::DsePoint]| {
                    x.len() == y.len() && x.iter().zip(y).all(|(p, q)| p.bit_eq(q))
                };
                same(&a.points, &b.points) && same(&a.front, &b.front)
            }
            _ => false,
        }
    }

    /// The invariants every result must hold.
    pub fn check(&self) -> Result<(), String> {
        match self {
            Output::Serve(r) => check_serve(r),
            Output::Explore(e) => check_explore(e),
        }
    }
}

/// FNV-1a, 64-bit: a stable digest with no dependency.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn finite(p: &Percentiles) -> bool {
    [p.p50_ms, p.p95_ms, p.p99_ms, p.mean_ms, p.max_ms]
        .iter()
        .all(|v| v.is_finite())
}

/// Requests are conserved per model and every percentile is finite.
pub fn check_serve(r: &ServeReport) -> Result<(), String> {
    for m in &r.models {
        if m.arrived != m.served + m.in_flight + m.queued_at_horizon {
            return Err(format!(
                "{}: arrived {} != served {} + in flight {} + queued {}",
                m.name, m.arrived, m.served, m.in_flight, m.queued_at_horizon
            ));
        }
        if ![&m.latency, &m.queue_delay, &m.ttft, &m.per_token]
            .into_iter()
            .all(finite)
        {
            return Err(format!("{}: non-finite percentile", m.name));
        }
    }
    if r.total_arrived != r.models.iter().map(|m| m.arrived).sum::<u64>() {
        return Err("total_arrived differs from the per-model sum".into());
    }
    if ![
        &r.aggregate_latency,
        &r.aggregate_ttft,
        &r.aggregate_per_token,
    ]
    .into_iter()
    .all(finite)
    {
        return Err("non-finite aggregate percentile".into());
    }
    Ok(())
}

/// The Pareto front is non-empty and every front point is feasible and
/// finite.
pub fn check_explore(e: &Exploration) -> Result<(), String> {
    if e.front.is_empty() {
        return Err("empty Pareto front".into());
    }
    for p in &e.front {
        if !(p.feasible
            && p.latency_ms.is_finite()
            && p.power_w.is_finite()
            && p.epb_nj.is_finite())
        {
            return Err(format!("bad front point {}", p.to_json()));
        }
    }
    Ok(())
}

/// Parses a pinned-digest file: one `<op index> <hex digest> <label>`
/// line per op of the default seed's list.
pub fn parse_pinned(text: &str) -> Vec<u64> {
    text.lines()
        .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
        .map(|l| {
            let hex = l.split_whitespace().nth(1).expect("digest column");
            u64::from_str_radix(hex, 16).expect("hex digest")
        })
        .collect()
}

/// Indices of ops whose digest differs from the pinned one (a length
/// mismatch marks every op).
pub fn digest_mismatches(pinned: &[u64], got: &[u64]) -> Vec<usize> {
    if pinned.len() != got.len() {
        return (0..got.len()).collect();
    }
    (0..got.len()).filter(|&i| pinned[i] != got[i]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use lumos_core::{Platform, PlatformConfig};
    use lumos_dnn::workload::Precision;
    use lumos_serve::{simulate, ServeConfig, ServedModel};

    fn small_report() -> ServeReport {
        let cfg = ServeConfig::new(
            PlatformConfig::paper_table1(),
            Platform::Siph2p5D,
            vec![ServedModel::cnn(
                &lumos_dnn::zoo::lenet5(),
                Precision::int8(),
                500.0,
                5.0,
            )],
        )
        .with_duration_s(0.02);
        simulate(&cfg).expect("small config simulates")
    }

    #[test]
    fn perturbed_report_fails_the_digest_check() {
        let report = small_report();
        let pinned = vec![Output::Serve(Box::new(report.clone())).digest()];
        assert!(digest_mismatches(&pinned, &pinned).is_empty());
        let mut bumped = report.clone();
        bumped.aggregate_latency.p99_ms =
            f64::from_bits(bumped.aggregate_latency.p99_ms.to_bits() + 1);
        let got = vec![Output::Serve(Box::new(bumped.clone())).digest()];
        assert_eq!(digest_mismatches(&pinned, &got), vec![0]);
        assert!(!Output::Serve(Box::new(report)).bit_eq(&Output::Serve(Box::new(bumped))));
        assert_eq!(digest_mismatches(&pinned, &[1, 2]), vec![0, 1]);
    }

    #[test]
    fn conservation_violation_fails_the_output_check() {
        let report = small_report();
        assert_eq!(check_serve(&report), Ok(()));
        let mut lost = report.clone();
        lost.models[0].arrived += 1;
        assert!(check_serve(&lost).is_err());
        let mut nan = report;
        nan.models[0].latency.p50_ms = f64::NAN;
        assert!(check_serve(&nan).is_err());
    }

    #[test]
    fn pinned_file_round_trips() {
        let text = "# header\n0 00000000000000ff a\n1 0000000000000010 b c\n";
        assert_eq!(parse_pinned(text), vec![255, 16]);
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
    }
}
