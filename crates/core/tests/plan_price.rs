//! Plan once, price many: the differential layer pinning
//! [`Runner::plan`] + [`StagePlan::price`] to
//! [`Runner::run_workloads_scaled`].
//!
//! One plan priced at a whole set of contention models, in a shuffled
//! order, must reproduce a fresh scaled run bit for bit at every one —
//! on all three platforms, for a CNN, a GPT-2 prefill and a GPT-2
//! decode stage, with and without pinned placement, traced or not.
//! Every single fault must surface as the same typed error from both
//! paths, at the phase `Runner::plan` documents.

use lumos_core::config::MacClass;
use lumos_core::contention::ContentionModel;
use lumos_core::mac::MacUnit;
use lumos_core::mapper::{place_with, PlacementPolicy};
use lumos_core::{CoreError, Platform, PlatformConfig, RunReport, Runner, StagePlan};
use lumos_dnn::workload::{extract_workloads, KernelClass, LayerWorkload, Precision};
use lumos_dnn::zoo;
use lumos_trace::Tracer;
use lumos_xformer::{extract_decode_workloads, extract_transformer_workloads};

const PLATFORMS: [Platform; 3] = [Platform::Siph2p5D, Platform::Elec2p5D, Platform::Monolithic];

/// The stages under test: LeNet5, the GPT-2-small prefill of a
/// 32-token prompt, and one KV-cached decode step after it.
fn stages() -> Vec<(&'static str, Vec<LayerWorkload>)> {
    let gpt2 = lumos_xformer::zoo::gpt2_small();
    let int8 = Precision::int8();
    vec![
        ("lenet5", extract_workloads(&zoo::lenet5(), int8)),
        (
            "gpt2 prefill",
            extract_transformer_workloads(&gpt2, 32, 1, int8),
        ),
        ("gpt2 decode", extract_decode_workloads(&gpt2, 36, 1, int8)),
    ]
}

/// Every contention a service table prices, in a seeded shuffled
/// order: uncontended, the uniform `1/k` diagonal for k = 2..4, and
/// every off-diagonal compute `1/k` × bandwidth `1/j` flow cell.
fn contentions() -> Vec<ContentionModel> {
    let mut set = vec![ContentionModel::uncontended()];
    set.extend((2..=4).map(ContentionModel::of_resident_streams));
    for k in 1..=4 {
        for j in (1..=4).filter(|&j| j != k) {
            set.push(ContentionModel::uniform(1.0 / k as f64).with_bandwidth_share(1.0 / j as f64));
        }
    }
    // Fisher–Yates over a fixed xorshift stream: a deterministic order
    // that is neither ascending nor the tabulation order.
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    for i in (1..set.len()).rev() {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        set.swap(i, (state % (i as u64 + 1)) as usize);
    }
    set
}

/// Bitwise report equality: every float compared through `to_bits`.
fn assert_bitwise(priced: &RunReport, fresh: &RunReport, ctx: &str) {
    assert_eq!(priced.model, fresh.model, "{ctx}");
    assert_eq!(priced.platform, fresh.platform, "{ctx}");
    assert_eq!(priced.total_latency, fresh.total_latency, "{ctx}");
    assert_eq!(
        priced.total_latency.as_secs_f64().to_bits(),
        fresh.total_latency.as_secs_f64().to_bits(),
        "{ctx}"
    );
    let (a, b) = (&priced.energy, &fresh.energy);
    for (name, x, y) in [
        ("mac", a.mac_j, b.mac_j),
        ("network", a.network_j, b.network_j),
        ("memory", a.memory_j, b.memory_j),
        ("digital", a.digital_j, b.digital_j),
    ] {
        assert_eq!(x.to_bits(), y.to_bits(), "{ctx}: {name} energy {x} vs {y}");
    }
    assert_eq!(priced.bits_moved, fresh.bits_moved, "{ctx}");
    assert_eq!(priced.layers.len(), fresh.layers.len(), "{ctx}");
    for (x, y) in priced.layers.iter().zip(&fresh.layers) {
        let at = format!("{ctx}: layer {}", y.name);
        assert_eq!(x.name, y.name, "{at}");
        assert_eq!(x.class, y.class, "{at}");
        assert_eq!((x.start, x.finish), (y.start, y.finish), "{at}");
        assert_eq!(x.compute_s.to_bits(), y.compute_s.to_bits(), "{at}");
        assert_eq!(x.comm_in_s.to_bits(), y.comm_in_s.to_bits(), "{at}");
        assert_eq!(x.comm_out_s.to_bits(), y.comm_out_s.to_bits(), "{at}");
        assert_eq!(x.bits, y.bits, "{at}");
    }
}

/// The plan's chiplet union and unit-seconds against a per-workload
/// [`place_with`] pass over the same stage.
fn assert_plan_matches_placement(
    plan: &StagePlan<'_>,
    runner: &Runner,
    work: &[LayerWorkload],
    ctx: &str,
) {
    let cfg = runner.config();
    let mut chiplets = Vec::new();
    let mut unit_s = [0.0f64; 4];
    for w in work {
        let p = place_with(cfg, w, runner.placement()).expect("stage places");
        chiplets.extend(p.chiplets.iter().copied());
        for share in &p.shares {
            let unit = MacUnit::new(share.class, &cfg.calibration);
            unit_s[share.class.index()] += share.passes as f64 / unit.passes_per_second();
        }
    }
    chiplets.sort_unstable();
    chiplets.dedup();
    assert_eq!(plan.chiplets(), chiplets.as_slice(), "{ctx}");
    let mut planned = [0.0f64; 4];
    plan.add_unit_seconds(&mut planned);
    assert_eq!(planned.map(f64::to_bits), unit_s.map(f64::to_bits), "{ctx}");
}

/// Plans every stage once per platform and prices it at every
/// contention, against a fresh scaled run each time.
fn check_plan_reuse(runner: &Runner, label: &str) {
    let contentions = contentions();
    for (name, work) in stages() {
        for platform in PLATFORMS {
            let ctx = format!("{label} {name} on {platform:?}");
            let plan = runner.plan(&platform, name, &work).expect("stage plans");
            assert_plan_matches_placement(&plan, runner, &work, &ctx);
            for c in &contentions {
                let priced = plan.price(c).expect("plan prices");
                let fresh = runner
                    .run_workloads_scaled(&platform, name, &work, c)
                    .expect("fresh scaled run");
                assert_bitwise(&priced, &fresh, &format!("{ctx} at {c:?}"));
            }
        }
    }
}

#[test]
fn one_plan_prices_every_contention_bitwise() {
    check_plan_reuse(&Runner::new(PlatformConfig::paper_table1()), "unrestricted");
}

#[test]
fn one_pinned_plan_prices_every_contention_bitwise() {
    // Dense on its second chiplet, Conv5 on its first, Conv3 on two of
    // three: every GPT-2 GEMM spreads over shrunken pools.
    let policy = PlacementPolicy::unrestricted()
        .pin(MacClass::Dense100, vec![1])
        .pin(MacClass::Conv5, vec![3])
        .pin(MacClass::Conv3, vec![5, 7]);
    let runner = Runner::new(PlatformConfig::paper_table1()).with_placement(policy);
    check_plan_reuse(&runner, "pinned");
}

#[test]
fn traced_price_equals_untraced() {
    let untraced = Runner::new(PlatformConfig::paper_table1());
    let traced = Runner::new(PlatformConfig::paper_table1()).with_tracer(Tracer::ring(1 << 12));
    let contentions = contentions();
    for (name, work) in stages() {
        for platform in PLATFORMS {
            let base = untraced.plan(&platform, name, &work).expect("plans");
            let plan = traced.plan(&platform, name, &work).expect("traced plans");
            for c in &contentions {
                let ctx = format!("{name} on {platform:?} at {c:?}");
                let priced = plan.price(c).expect("traced price");
                assert_bitwise(&priced, &base.price(c).expect("untraced price"), &ctx);
                assert!(!traced.tracer().drain().is_empty(), "{ctx}: traced");
            }
        }
    }
}

/// Runs `work` through a fresh scaled run and through plan + price,
/// asserts both fail with the same error, and that the plan itself
/// fails exactly when `expected_at_plan`. Returns the error.
fn assert_both_fail(
    runner: &Runner,
    platform: Platform,
    work: &[LayerWorkload],
    contention: &ContentionModel,
    expected_at_plan: bool,
) -> CoreError {
    let fresh = runner
        .run_workloads_scaled(&platform, "faulty", work, contention)
        .expect_err("the fault fails the scaled run");
    let planned = runner.plan(&platform, "faulty", work);
    let split = match planned {
        Err(e) => {
            assert!(expected_at_plan, "{fresh:?} surfaced at plan time");
            e
        }
        Ok(plan) => {
            assert!(!expected_at_plan, "{fresh:?} did not surface at plan time");
            plan.price(contention)
                .expect_err("the fault fails the price")
        }
    };
    assert_eq!(split, fresh, "both paths report the same error");
    fresh
}

#[test]
fn pin_to_wrong_class_fails_at_plan_time() {
    // Chiplet 0 hosts Dense100, not Conv5.
    let policy = PlacementPolicy::unrestricted().pin(MacClass::Conv5, vec![0]);
    let runner = Runner::new(PlatformConfig::paper_table1()).with_placement(policy);
    let work = extract_workloads(&zoo::lenet5(), Precision::int8());
    for platform in PLATFORMS {
        let err = assert_both_fail(
            &runner,
            platform,
            &work,
            &ContentionModel::uncontended(),
            true,
        );
        let CoreError::BadConfig { reason } = err else {
            panic!("{platform:?}: expected BadConfig, got {err:?}");
        };
        assert!(reason.contains("Conv5 pinned to chiplet 0"), "{reason}");
        assert!(reason.contains("Dense100"), "{reason}");
    }
}

#[test]
fn zero_sized_kernel_fails_at_plan_time_naming_the_layer() {
    let runner = Runner::new(PlatformConfig::paper_table1());
    let mut work = extract_workloads(&zoo::lenet5(), Precision::int8());
    let mut bad = work[1].clone();
    bad.name = "c3_degenerate".into();
    bad.class = KernelClass::Conv { k: 0 };
    work.insert(2, bad);
    for platform in PLATFORMS {
        let err = assert_both_fail(
            &runner,
            platform,
            &work,
            &ContentionModel::uncontended(),
            true,
        );
        assert!(
            matches!(&err, CoreError::UnmappableLayer { layer, .. } if layer == "c3_degenerate"),
            "{platform:?}: {err:?}"
        );
    }
}

#[test]
fn share_outside_unit_interval_fails_at_price_time() {
    let runner = Runner::new(PlatformConfig::paper_table1());
    let work = extract_workloads(&zoo::lenet5(), Precision::int8());
    let bad = [
        ContentionModel::uniform(0.0),
        ContentionModel::uniform(1.5),
        ContentionModel::uncontended().with_bandwidth_share(f64::NAN),
        ContentionModel::uncontended().with_unit_share(MacClass::Conv3, -0.25),
    ];
    for platform in PLATFORMS {
        for c in &bad {
            let err = assert_both_fail(&runner, platform, &work, c, false);
            assert!(
                matches!(&err, CoreError::BadConfig { reason } if reason.contains("share")),
                "{platform:?} at {c:?}: {err:?}"
            );
        }
    }
}

#[test]
fn infeasible_interposer_fails_at_price_time() {
    let mut cfg = PlatformConfig::paper_table1();
    cfg.phnet.max_laser_dbm = -30.0;
    let runner = Runner::new(cfg);
    let work = extract_workloads(&zoo::lenet5(), Precision::int8());
    let err = assert_both_fail(
        &runner,
        Platform::Siph2p5D,
        &work,
        &ContentionModel::uncontended(),
        false,
    );
    assert!(matches!(err, CoreError::InfeasiblePhotonics(_)), "{err:?}");
    // The other platforms never build the interposer.
    for platform in [Platform::Elec2p5D, Platform::Monolithic] {
        runner
            .run_workloads_scaled(&platform, "lenet5", &work, &ContentionModel::uncontended())
            .expect("no interposer, no link budget");
    }
}
